package telemetry

import (
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// TraceEvent is one entry of the Chrome trace-event format ("X" =
// complete event), loadable by chrome://tracing and ui.perfetto.dev.
// Timestamps and durations are microseconds, per the format spec.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// TraceDoc is the JSON object form of the trace-event format.
type TraceDoc struct {
	TraceEvents     []TraceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// JSON renders the document. Marshalling fails only on a non-finite
// timestamp or duration, which Run.Export never produces, so the error
// is elided; a document carrying foreign timestamps (a stitched member
// trace) must be marshalled with its error checked instead.
func (d *TraceDoc) JSON() []byte {
	b, _ := json.Marshal(d)
	return b
}

// Export converts the run's spans into a trace-event document. Spans
// are assigned to lanes (trace tids) so the viewer renders them
// correctly: spans on one lane either nest or are disjoint, and
// concurrently overlapping spans — fan-out policy replays inside one
// frame — spread across lanes.
func (r *Run) Export(meta map[string]string) *TraceDoc {
	spans := r.Snapshot()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur // parents before their children
	})
	lanes := assignLanes(spans)
	doc := &TraceDoc{
		TraceEvents:     make([]TraceEvent, 0, len(spans)),
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{},
	}
	for k, v := range meta {
		doc.OtherData[k] = v
	}
	if r != nil {
		doc.OtherData["trace_id"] = r.TraceID
		// The absolute anchor lets a remote stitcher rebase these relative
		// timestamps onto its own clock (after offset correction).
		doc.OtherData["anchor_unix_ns"] = strconv.FormatInt(r.anchor.UnixNano(), 10)
		if r.ParentSpan != "" {
			doc.OtherData["parent_span"] = r.ParentSpan
		}
		if d := r.Dropped(); d > 0 {
			doc.OtherData["dropped_spans"] = strconv.FormatInt(d, 10)
		}
	}
	for i, sp := range spans {
		ev := TraceEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			TS:   float64(sp.Start) / float64(time.Microsecond),
			Dur:  float64(sp.Dur) / float64(time.Microsecond),
			PID:  1,
			TID:  lanes[i],
		}
		if len(sp.Attrs) > 0 {
			ev.Args = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				ev.Args[a.Key] = a.Val
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	return doc
}

// assignLanes greedily places start-sorted spans onto lanes such that
// any two spans sharing a lane either nest (the viewer draws the child
// inside the parent) or are disjoint. Each lane keeps a stack of open
// interval end times; a span fits a lane when, after popping intervals
// that ended before it starts, the lane is empty or its innermost open
// interval fully contains the span.
func assignLanes(spans []SpanRecord) []int {
	out := make([]int, len(spans))
	var lanes [][]time.Duration // per lane: stack of open end times
	for i, sp := range spans {
		start, end := sp.Start, sp.Start+sp.Dur
		placed := false
		for l := range lanes {
			st := lanes[l]
			for len(st) > 0 && st[len(st)-1] <= start {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || st[len(st)-1] >= end {
				lanes[l] = append(st, end)
				out[i] = l
				placed = true
				break
			}
			lanes[l] = st
		}
		if !placed {
			lanes = append(lanes, []time.Duration{end})
			out[i] = len(lanes) - 1
		}
	}
	return out
}
