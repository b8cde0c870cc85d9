package telemetry

import (
	"sync"
	"time"
)

// Event is one entry of the flight recorder: a job-lifecycle moment an
// operator staring at a misbehaving server wants to reconstruct.
type Event struct {
	Time    time.Time `json:"time"`
	Type    string    `json:"type"`
	RunID   string    `json:"run_id,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// Flight is a fixed-size ring of the most recent events — the
// black-box recorder served at /debugz. Recording is one mutex'd slot
// store; the ring never allocates after construction.
type Flight struct {
	mu   sync.Mutex
	ring ring[Event]
}

// DefaultFlightEvents is the ring capacity when NewFlight is given a
// non-positive size.
const DefaultFlightEvents = 256

// NewFlight builds a recorder holding the last n events (<= 0 selects
// DefaultFlightEvents).
func NewFlight(n int) *Flight {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &Flight{ring: newRing[Event](n)}
}

// Add records an event, stamping its time when unset. Nil-safe so
// callers can thread an optional recorder unconditionally.
func (f *Flight) Add(e Event) {
	if f == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	f.mu.Lock()
	f.ring.push(e)
	f.mu.Unlock()
}

// Events returns the retained events, newest first.
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, 0, f.ring.len())
	for i := f.ring.len() - 1; i >= 0; i-- {
		out = append(out, f.ring.at(i))
	}
	return out
}

// Total reports how many events were ever recorded (including those the
// ring has since overwritten).
func (f *Flight) Total() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.total()
}
