package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"gspc/internal/stream"
	"gspc/internal/workload"
)

// encode writes tr in the container format, failing the test on error.
func encode(t *testing.T, tr *stream.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	in := stream.Pack([]stream.Access{
		{Addr: 0x1234, Kind: stream.Z, Write: true},
		{Addr: 0xdeadbeef, Kind: stream.Texture},
		{Addr: 0, Kind: stream.Display, Write: true},
	})
	out, err := ReadTrace(bytes.NewReader(encode(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() {
		t.Fatalf("len = %d, want %d", out.Len(), in.Len())
	}
	for i := range in.Len() {
		if got, want := out.At(i), in.At(i); got != want {
			t.Errorf("record %d: %+v != %+v", i, got, want)
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	out, err := ReadTrace(bytes.NewReader(encode(t, stream.NewTrace(0))))
	if err != nil || out.Len() != 0 {
		t.Fatalf("empty roundtrip: %v, %d records", err, out.Len())
	}
}

func TestBadMagic(t *testing.T) {
	_, err := ReadTrace(bytes.NewReader([]byte("NOTATRACE_______")))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	raw := encode(t, stream.Pack([]stream.Access{{Addr: 1}, {Addr: 2}}))
	_, err := ReadTrace(bytes.NewReader(raw[:len(raw)-3]))
	if err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestInvalidKindRejected(t *testing.T) {
	raw := encode(t, stream.Pack([]stream.Access{{Addr: 1, Kind: stream.Z}}))
	raw[len(raw)-1] = 0x5f // kind 31, invalid
	_, err := ReadTrace(bytes.NewReader(raw))
	if err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, kinds []byte, writes []bool) bool {
		in := stream.NewTrace(len(addrs))
		for i, ad := range addrs {
			a := stream.Access{Addr: uint64(ad), Write: i < len(writes) && writes[i]}
			if i < len(kinds) {
				a.Kind = stream.Kind(kinds[i] % byte(stream.NumKinds))
			}
			in.Append(a)
		}
		var buf bytes.Buffer
		if WriteTrace(&buf, in) != nil {
			return false
		}
		out, err := ReadTrace(&buf)
		if err != nil || out.Len() != in.Len() {
			return false
		}
		for i := range in.Len() {
			if out.At(i) != in.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGenerateFrameDeterministic(t *testing.T) {
	j := workload.Suite()[3]
	a := GeneratePacked(j, 0.1)
	b := GeneratePacked(j, 0.1)
	if a.Len() != b.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Len() {
		if a.At(i) != b.At(i) {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestGenerateFrameSeqAssigned(t *testing.T) {
	j := workload.Suite()[0]
	tr := GeneratePacked(j, 0.1)
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	for i := range tr.Len() {
		a := tr.At(i)
		if a.Seq != int64(i) {
			t.Fatalf("seq[%d] = %d", i, a.Seq)
		}
		if !a.Kind.Valid() {
			t.Fatalf("invalid kind at %d", i)
		}
	}
}

func TestGenerateFrameHasAllMajorStreams(t *testing.T) {
	j := workload.Suite()[0]
	tr := GeneratePacked(j, 0.15)
	var counts [stream.NumKinds]int
	for i := range tr.Len() {
		counts[tr.KindAt(i)]++
	}
	for _, k := range []stream.Kind{stream.Vertex, stream.HiZ, stream.Z, stream.RT, stream.Texture, stream.Display} {
		if counts[k] == 0 {
			t.Errorf("stream %v absent from generated trace", k)
		}
	}
	// The two dominant streams of Figure 4 must dominate here too.
	tot := tr.Len()
	if counts[stream.RT]+counts[stream.Texture] < tot/2 {
		t.Errorf("rt+texture = %d of %d accesses; expected the majority", counts[stream.RT]+counts[stream.Texture], tot)
	}
}

func TestHugeCountHeaderFailsFast(t *testing.T) {
	// A header claiming billions of records over a tiny body must error
	// quickly without attempting a giant allocation.
	var buf bytes.Buffer
	buf.Write([]byte("GSPCTRC1"))
	var hdr [8]byte
	hdr[3] = 0x40 // ~1 billion records
	buf.Write(hdr[:])
	buf.WriteString("short body")
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("truncated huge-count trace accepted")
	}
}
