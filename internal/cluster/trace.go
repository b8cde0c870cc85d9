package cluster

import (
	"encoding/json"
	"fmt"
	"strconv"

	"gspc/internal/telemetry"
)

const (
	// coordTraceMaxSpans bounds the coordinator-side span buffer per
	// submit: route + health snapshot + a handful of forward/hedge/
	// replication spans is typically under twenty, so 512 leaves ample
	// headroom without letting a pathological retry loop grow unbounded.
	coordTraceMaxSpans = 512
	// traceRegistryCap bounds how many completed submits keep their
	// coordinator-side run retained for later stitching; the least
	// recently registered or looked-up run is evicted past this.
	traceRegistryCap = 4096
)

// traceEntry pairs a coordinator-side run with the member that executed
// the job, keyed by the qualified run id ("run-000017@gspc-1") so the
// trace endpoint can stitch without re-deriving placement.
type traceEntry struct {
	run  *telemetry.Run
	node string
}

// stitchTrace merges the coordinator's spans for one submit with the
// member's exported trace document into a single Perfetto-loadable
// document: coordinator spans on pid 1, member spans on pid 2, member
// timestamps rebased onto the coordinator's clock using the estimated
// offset (remote minus local, from timestamp-echoed exchanges).
//
// Errors mean the member document could not be interpreted (parse
// failure, missing anchor, timestamps that do not survive the rebase);
// callers fall back to relaying the member's document unstitched.
func stitchTrace(coRun *telemetry.Run, coordinator, node string, memberBody []byte, off telemetry.OffsetEstimate) ([]byte, error) {
	var member telemetry.TraceDoc
	if err := json.Unmarshal(memberBody, &member); err != nil {
		return nil, fmt.Errorf("member trace unparseable: %w", err)
	}
	memAnchorNs, err := strconv.ParseInt(member.OtherData["anchor_unix_ns"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("member trace lacks anchor_unix_ns")
	}
	coDoc := coRun.Export(nil)
	coAnchorNs, err := strconv.ParseInt(coDoc.OtherData["anchor_unix_ns"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("coordinator trace lacks anchor_unix_ns")
	}

	// A member timestamp ts (µs since the member anchor, member clock)
	// lands on the coordinator timeline at
	//   memAnchor + ts - offset - coAnchor
	// since offset estimates (member clock - coordinator clock).
	shiftUs := float64(memAnchorNs-off.Offset.Nanoseconds()-coAnchorNs) / 1e3

	// Coordinator span ids, for orphan detection: the member run's
	// parent_span must name a forward attempt the coordinator recorded.
	spanIDs := map[string]bool{}
	for _, ev := range coDoc.TraceEvents {
		if id := ev.Args["span_id"]; id != "" {
			spanIDs[id] = true
		}
	}

	adopted := member.OtherData["trace_id"] == coRun.TraceID
	orphans := 0
	if adopted {
		if ps := member.OtherData["parent_span"]; ps == "" || !spanIDs[ps] {
			orphans++
		}
	}

	out := &telemetry.TraceDoc{
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"trace_id":        coRun.TraceID,
			"stitched":        "true",
			"adopted":         strconv.FormatBool(adopted),
			"node":            node,
			"coordinator":     coordinator,
			"clock_offset_ns": strconv.FormatInt(off.Offset.Nanoseconds(), 10),
			"clock_delay_ns":  strconv.FormatInt(off.Delay.Nanoseconds(), 10),
			"offset_samples":  strconv.FormatInt(off.Samples, 10),
			"orphan_spans":    strconv.Itoa(orphans),
		},
	}
	if d := member.OtherData["dropped_spans"]; d != "" {
		out.OtherData["member_dropped_spans"] = d
	}
	if d := coDoc.OtherData["dropped_spans"]; d != "" {
		out.OtherData["coordinator_dropped_spans"] = d
	}

	events := make([]telemetry.TraceEvent, 0, len(coDoc.TraceEvents)+len(member.TraceEvents)+2)
	for _, ev := range coDoc.TraceEvents {
		ev.PID = 1
		events = append(events, ev)
	}
	for _, ev := range member.TraceEvents {
		if ev.Ph == "M" {
			continue // lane metadata is re-emitted below
		}
		ev.PID = 2
		ev.TS += shiftUs
		events = append(events, ev)
	}

	// Normalize so the earliest span sits at ts 0: a negative member
	// shift (member anchor behind the coordinator's) must not push
	// timestamps below zero, which some viewers clip.
	minTS := 0.0
	for _, ev := range events {
		if ev.TS < minTS {
			minTS = ev.TS
		}
	}
	if minTS < 0 {
		for i := range events {
			events[i].TS -= minTS
		}
	}

	events = append(events,
		telemetry.TraceEvent{Name: "process_name", Ph: "M", PID: 1,
			Args: map[string]string{"name": "coordinator " + coordinator}},
		telemetry.TraceEvent{Name: "process_name", Ph: "M", PID: 2,
			Args: map[string]string{"name": "member " + node}},
	)
	out.TraceEvents = events
	// Member timestamps are foreign input: extreme values overflow to
	// ±Inf in the rebase above, which JSON cannot carry.
	b, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("member trace timestamps out of range: %w", err)
	}
	return b, nil
}
