package trace

import (
	"bytes"
	"testing"

	"gspc/internal/stream"
)

// FuzzRead exercises the trace decoder against arbitrary byte streams:
// it must never panic, and anything it accepts must re-encode to exactly
// the bytes it consumed — the 16-byte header plus 9 bytes per record
// (trailing bytes beyond the declared count are ignored by the decoder).
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteTrace(&seed, stream.Pack([]stream.Access{
		{Addr: 0x1000, Kind: stream.Z, Write: true},
		{Addr: 0x2000, Kind: stream.Texture},
	}))
	f.Add(seed.Bytes())
	f.Add([]byte("GSPCTRC1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		n := 16 + stream.RecordBytes*tr.Len()
		if len(data) < n || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("re-encoding %d records does not reproduce the first %d input bytes", tr.Len(), n)
		}
	})
}
