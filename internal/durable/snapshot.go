package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Snapshot file format: an 8-byte magic, a u32 format version, then one
// journal-style frame (u32 length, u32 CRC32, JSON payload). The whole
// file is written to a temp name and renamed into place, so a crash
// mid-snapshot leaves the previous snapshot intact; a file that fails
// the magic, version, length, or checksum test is quarantined to
// <name>.corrupt for post-mortem instead of being deleted or trusted.
var snapshotMagic = [8]byte{'G', 'S', 'P', 'C', 'S', 'N', 'A', 'P'}

// snapshotFormatVersion is the on-disk container version. It guards the
// framing only; the engine-level payload schema is versioned separately
// by State.SchemaVersion / harness.ResultSchemaVersion.
const snapshotFormatVersion = 1

// encodeSnapshot renders the state into the on-disk container.
func encodeSnapshot(st *State) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("durable: encode snapshot: %w", err)
	}
	buf := make([]byte, 12+journalHeaderSize+len(payload))
	copy(buf[0:8], snapshotMagic[:])
	binary.BigEndian.PutUint32(buf[8:12], snapshotFormatVersion)
	binary.BigEndian.PutUint32(buf[12:16], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload))
	copy(buf[20:], payload)
	return buf, nil
}

// decodeSnapshot parses and verifies a snapshot file.
func decodeSnapshot(data []byte) (*State, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("durable: snapshot too short (%d bytes)", len(data))
	}
	if [8]byte(data[0:8]) != snapshotMagic {
		return nil, fmt.Errorf("durable: snapshot bad magic")
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != snapshotFormatVersion {
		return nil, fmt.Errorf("durable: snapshot format version %d (want %d)", v, snapshotFormatVersion)
	}
	n := int(binary.BigEndian.Uint32(data[12:16]))
	sum := binary.BigEndian.Uint32(data[16:20])
	if len(data)-20 < n {
		return nil, fmt.Errorf("durable: snapshot truncated (%d of %d payload bytes)", len(data)-20, n)
	}
	payload := data[20 : 20+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("durable: snapshot checksum mismatch")
	}
	var st State
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("durable: snapshot decode: %w", err)
	}
	for id, j := range st.Jobs {
		if j == nil { // recovery walks every job; a null one would crash it
			return nil, fmt.Errorf("durable: snapshot job %q is null", id)
		}
	}
	return &st, nil
}

// writeSnapshot atomically replaces path with the encoded state: write
// to path.tmp, fsync, rename over path, fsync the directory.
func writeSnapshot(fsys FS, dir, path string, st *State) error {
	buf, err := encodeSnapshot(st)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("durable: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: close snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: publish snapshot: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: fsync snapshot dir: %w", err)
	}
	return nil
}
