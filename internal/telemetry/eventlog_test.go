package telemetry

import (
	"os"
	"path/filepath"
	"testing"
)

func TestEventLogSeqAndSince(t *testing.T) {
	l, err := NewEventLog(8, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ev := l.Add(EventRingSwap, "", "gen=1")
		if ev.Seq != int64(i+1) {
			t.Fatalf("seq = %d, want %d", ev.Seq, i+1)
		}
	}
	evs, cursor := l.Since(0, 0)
	if len(evs) != 5 || cursor != 5 {
		t.Fatalf("since(0) = %d events cursor %d, want 5/5", len(evs), cursor)
	}
	if evs[0].Seq != 1 || evs[4].Seq != 5 {
		t.Errorf("events not oldest-first: %v", evs)
	}
	evs, _ = l.Since(3, 0)
	if len(evs) != 2 || evs[0].Seq != 4 {
		t.Errorf("since(3) = %v, want seqs 4..5", evs)
	}
	evs, _ = l.Since(0, 2)
	if len(evs) != 2 || evs[0].Seq != 1 {
		t.Errorf("since(0, max 2) = %v, want seqs 1..2", evs)
	}
}

func TestEventLogRingEvicts(t *testing.T) {
	l, _ := NewEventLog(3, "")
	for i := 0; i < 10; i++ {
		l.Add(EventMemberSuspected, "n1", "")
	}
	evs, cursor := l.Since(0, 0)
	if len(evs) != 3 {
		t.Fatalf("%d events retained, want 3", len(evs))
	}
	if evs[0].Seq != 8 || evs[2].Seq != 10 || cursor != 10 {
		t.Errorf("retained seqs %d..%d cursor %d, want 8..10/10", evs[0].Seq, evs[2].Seq, cursor)
	}
	if l.Total() != 10 {
		t.Errorf("total = %d, want 10", l.Total())
	}
}

func TestEventLogDurableReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	l, err := NewEventLog(8, path)
	if err != nil {
		t.Fatal(err)
	}
	l.Add(EventMemberDead, "n2", "strikes=3")
	l.Add(EventDrainStart, "n3", "")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: Seq resumes, ring holds the replayed tail.
	l2, err := NewEventLog(8, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	evs, cursor := l2.Since(0, 0)
	if len(evs) != 2 || cursor != 2 {
		t.Fatalf("replayed %d events cursor %d, want 2/2", len(evs), cursor)
	}
	if evs[0].Type != EventMemberDead || evs[0].Node != "n2" || evs[0].Detail != "strikes=3" {
		t.Errorf("replayed event 0 = %+v", evs[0])
	}
	if ev := l2.Add(EventDrainEnd, "n3", ""); ev.Seq != 3 {
		t.Errorf("seq after replay = %d, want 3", ev.Seq)
	}
	if l2.Total() != 3 {
		t.Errorf("total after replay = %d, want 3", l2.Total())
	}
}

func TestEventLogReplaySkipsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	good := `{"seq":1,"time":"2026-01-01T00:00:00Z","type":"ring-swap"}` + "\n"
	torn := `{"seq":2,"time":"2026-01-01T00:` // crash mid-append
	if err := os.WriteFile(path, []byte(good+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewEventLog(8, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	evs, _ := l.Since(0, 0)
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("replayed %v, want just seq 1", evs)
	}
	if ev := l.Add(EventRingSwap, "", ""); ev.Seq != 2 {
		t.Errorf("next seq = %d, want 2", ev.Seq)
	}
}

func TestEventLogCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	l, err := NewEventLog(4, path)
	if err != nil {
		t.Fatal(err)
	}
	// Force compaction by pretending the file is over budget.
	l.mu.Lock()
	l.fileSize = eventLogMaxFileBytes + 1
	l.mu.Unlock()
	l.Add(EventRingSwap, "", "gen=2") // triggers compact
	l.Add(EventRingSwap, "", "gen=3")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 1024 {
		t.Errorf("file size %d after compaction, want small", st.Size())
	}
	// The compacted file must still replay.
	l2, err := NewEventLog(4, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	evs, cursor := l2.Since(0, 0)
	if len(evs) != 2 || cursor != 2 {
		t.Errorf("replayed %d events cursor %d after compaction, want 2/2", len(evs), cursor)
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Add(EventRingSwap, "", "")
	evs, cursor := l.Since(0, 0)
	if evs != nil || cursor != 0 || l.Total() != 0 || l.Close() != nil {
		t.Error("nil event log reported state")
	}
}

// FuzzEventLogReplay feeds arbitrary bytes to a durable event log as
// its on-disk NDJSON file. Replay must never panic, must keep at most
// the ring's capacity with no event past the resume cursor, and the
// next Add must extend the cursor and be visible to a client resuming
// from it — torn, reordered or hostile lines included.
func FuzzEventLogReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "events.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, _ := NewEventLog(4, path) // a replay error still leaves a usable log
		defer l.Close()
		evs, cursor := l.Since(0, 0)
		if len(evs) > 4 {
			t.Fatalf("replay retained %d events in a ring of 4", len(evs))
		}
		for _, ev := range evs {
			if ev.Seq > cursor {
				t.Fatalf("replayed seq %d above cursor %d", ev.Seq, cursor)
			}
		}
		ev := l.Add(EventRingSwap, "", "")
		if ev.Seq <= cursor {
			t.Fatalf("Add after replay got seq %d, not above cursor %d", ev.Seq, cursor)
		}
		if after, _ := l.Since(cursor, 0); len(after) != 1 || after[0].Seq != ev.Seq {
			t.Fatalf("Since(%d) = %v, want just the added seq %d", cursor, after, ev.Seq)
		}
	})
}
