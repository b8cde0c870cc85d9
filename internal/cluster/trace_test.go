package cluster

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"

	"gspc/internal/telemetry"
)

// coordinatorRun is a coordinator-side run with two recorded spans, the
// shape stitchTrace sees for a routed submit.
func coordinatorRun() *telemetry.Run {
	run := telemetry.NewRun("c0ffee", coordTraceMaxSpans)
	now := time.Now()
	run.Record("submit", "cluster", now, now.Add(2*time.Millisecond))
	run.Record("forward", "cluster", now, now.Add(time.Millisecond),
		telemetry.String("span_id", "s1"))
	return run
}

// memberDoc renders a member trace document anchored at anchorNs with
// one span per timestamp.
func memberDoc(anchorNs int64, ts ...float64) []byte {
	doc := telemetry.TraceDoc{DisplayTimeUnit: "ms", OtherData: map[string]string{
		"trace_id": "c0ffee", "parent_span": "s1",
		"anchor_unix_ns": strconv.FormatInt(anchorNs, 10),
	}}
	for _, t := range ts {
		doc.TraceEvents = append(doc.TraceEvents,
			telemetry.TraceEvent{Name: "attempt-1", Cat: "engine", Ph: "X", TS: t, Dur: 1, PID: 1})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return b
}

// TestStitchTraceRejectsOverflowingTimestamps: member timestamps at the
// ends of the float range overflow to ±Inf when rebased onto ts 0. The
// stitcher must report that instead of answering an empty document, so
// the trace endpoint relays the member's document unstitched.
func TestStitchTraceRejectsOverflowingTimestamps(t *testing.T) {
	run := coordinatorRun()
	body := memberDoc(time.Now().UnixNano(), -1.7e308, 1.7e308)
	out, err := stitchTrace(run, "co", "n1", body, telemetry.OffsetEstimate{})
	if err == nil {
		t.Fatalf("stitch of overflowing timestamps succeeded with %d bytes: %q", len(out), out)
	}

	// An ordinary member document still stitches.
	out, err = stitchTrace(run, "co", "n1", memberDoc(time.Now().UnixNano(), 0, 5), telemetry.OffsetEstimate{})
	if err != nil || len(out) == 0 {
		t.Fatalf("ordinary stitch = %d bytes, %v", len(out), err)
	}
}

// FuzzStitchTrace feeds arbitrary member documents and clock offsets to
// the stitcher, which reads the member's trace off the network:
//   - it never panics;
//   - it either returns an error (the caller relays the member document)
//     or a non-empty, parseable stitched document;
//   - a stitched document keeps every member span on pid 2 beside the
//     coordinator's spans on pid 1, names both lanes, and has only
//     finite, non-negative timestamps.
func FuzzStitchTrace(f *testing.F) {
	now := time.Now().UnixNano()
	f.Add(memberDoc(now, 0, 10, 20), int64(0))
	f.Add(memberDoc(now, 3), int64(-5e6))
	run := coordinatorRun()
	coEvents := len(run.Export(nil).TraceEvents)
	f.Fuzz(func(t *testing.T, body []byte, offsetNs int64) {
		out, err := stitchTrace(run, "co", "n1", body, telemetry.OffsetEstimate{Offset: time.Duration(offsetNs)})
		if err != nil {
			return
		}
		if len(out) == 0 {
			t.Fatal("stitch succeeded with an empty document")
		}
		var member, doc telemetry.TraceDoc
		if err := json.Unmarshal(body, &member); err != nil {
			t.Fatalf("stitch accepted an unparseable member document: %v", err)
		}
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Fatalf("stitched document unparseable: %v", err)
		}
		if doc.OtherData["stitched"] != "true" || doc.OtherData["trace_id"] != run.TraceID {
			t.Errorf("stitched metadata = %v", doc.OtherData)
		}
		memberSpans := 0
		for _, ev := range member.TraceEvents {
			if ev.Ph != "M" {
				memberSpans++
			}
		}
		pids := map[int]int{}
		lanes := 0
		for _, ev := range doc.TraceEvents {
			if math.IsNaN(ev.TS) || math.IsInf(ev.TS, 0) || ev.TS < 0 {
				t.Fatalf("event %q has timestamp %v", ev.Name, ev.TS)
			}
			if ev.Ph == "M" && ev.Name == "process_name" {
				lanes++
				continue
			}
			pids[ev.PID]++
		}
		if pids[1] != coEvents || pids[2] != memberSpans || lanes != 2 {
			t.Errorf("stitched %v spans by pid and %d lane names, want %d coordinator, %d member, 2 names",
				pids, lanes, coEvents, memberSpans)
		}
	})
}
