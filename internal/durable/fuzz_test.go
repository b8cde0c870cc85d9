package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
)

// storeFiles journals job lifecycles through a real Store, compacting
// midway, and returns the on-disk snapshot (holding a cache entry) and
// the journal written after it.
func storeFiles(tb testing.TB) (snap, journal []byte) {
	tb.Helper()
	dir := tb.TempDir()
	s, st, err := Open(dir, silentOptions())
	if err != nil {
		tb.Fatal(err)
	}
	sub := rec(RecSubmit, "run-000001", 1)
	sub.Data = json.RawMessage(`{"experiment":"fig12"}`)
	done := rec(RecDone, "run-000001", 0)
	done.Data = json.RawMessage(`{"experiment":"fig12","schema_version":1}`)
	fail := rec(RecFail, "run-000002", 0)
	fail.Error, fail.Category = "boom", "transient"
	for i, r := range []Record{sub, rec(RecStart, "run-000001", 0), done,
		rec(RecSubmit, "run-000002", 2), rec(RecStart, "run-000002", 0), fail,
		rec(RecSubmit, "run-000003", 3), rec(RecCancel, "run-000003", 0)} {
		if err := s.Append(r); err != nil {
			tb.Fatal(err)
		}
		st.Apply(r)
		if i == 2 {
			if err := s.Compact(st); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	if snap, err = os.ReadFile(join(dir, snapshotName)); err != nil {
		tb.Fatal(err)
	}
	if journal, err = os.ReadFile(join(dir, journalName)); err != nil {
		tb.Fatal(err)
	}
	return snap, journal
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder, both
// raw and wrapped in a valid container so the JSON payload decode is
// reached past the checksum. It must never panic, and what it accepts
// must survive the store's own write path: re-encoding is a fixed point
// (a second encode/decode yields the same bytes and a deep-equal State),
// and recovery's JobsBySeq runs on the decoded state. The first decode
// may differ from its re-encoding only in JSON spelling (whitespace
// inside raw bodies, an empty versus an absent collection).
func FuzzDecodeSnapshot(f *testing.F) {
	snap, _ := storeFiles(f)
	f.Add(snap)
	f.Add(snap[:len(snap)-3])    // torn tail
	f.Add(snap[snapshotHeader:]) // bare payload: wrapped below
	f.Add([]byte(`{"jobs":{"a":null,"b":{"id":"b"}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, wrapSnapshot(data)} {
			st, err := decodeSnapshot(in)
			if err != nil {
				continue
			}
			st.JobsBySeq()
			b1, err := encodeSnapshot(st)
			if err != nil {
				t.Fatalf("accepted snapshot does not re-encode: %v", err)
			}
			st2, err := decodeSnapshot(b1)
			if err != nil {
				t.Fatalf("re-encoded snapshot rejected: %v", err)
			}
			b2, err := encodeSnapshot(st2)
			if err != nil {
				t.Fatal(err)
			}
			st3, err := decodeSnapshot(b2)
			if err != nil || !bytes.Equal(b1, b2) || !reflect.DeepEqual(st2, st3) {
				t.Fatalf("snapshot round trip is not a fixed point: %v\n%s\n%s", err, b1, b2)
			}
		}
	})
}

// snapshotHeader is the container prefix before the JSON payload:
// magic, format version, payload length and CRC32.
const snapshotHeader = 20

// wrapSnapshot frames payload as a current-format snapshot container.
func wrapSnapshot(payload []byte) []byte {
	buf := make([]byte, snapshotHeader, snapshotHeader+len(payload))
	copy(buf, snapshotMagic[:])
	binary.BigEndian.PutUint32(buf[8:12], snapshotFormatVersion)
	binary.BigEndian.PutUint32(buf[12:16], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// FuzzScanJournal feeds arbitrary bytes to the journal scanner, raw and
// as one framed record. scanJournal must never panic; its validated
// prefix is never longer than the input, is torn exactly when shorter,
// and re-framing the returned payloads reproduces it byte for byte.
// Replaying every decodable record into a State, as recovery does, must
// never panic either.
func FuzzScanJournal(f *testing.F) {
	_, journal := storeFiles(f)
	f.Add(journal)
	f.Add(journal[:len(journal)-3]) // torn tail
	flipped := bytes.Clone(journal)
	flipped[len(flipped)-1] ^= 0xFF // checksum mismatch in the last record
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, frameRecord(data)} {
			payloads, goodSize, torn := scanJournal(in)
			if goodSize < 0 || goodSize > int64(len(in)) || torn != (goodSize < int64(len(in))) {
				t.Fatalf("goodSize %d, torn %v for %d input bytes", goodSize, torn, len(in))
			}
			var reframed []byte
			for _, p := range payloads {
				reframed = append(reframed, frameRecord(p)...)
			}
			if !bytes.Equal(reframed, in[:goodSize]) {
				t.Fatalf("re-framed payloads differ from the validated prefix")
			}
			st := NewState(1)
			for _, p := range payloads {
				var r Record
				if json.Unmarshal(p, &r) == nil {
					st.Apply(r)
				}
			}
			st.JobsBySeq()
		}
	})
}
