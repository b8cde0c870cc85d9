package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// ClusterEvent is one typed entry of the cluster timeline: a membership
// or health transition the coordinator observed. Seq is a monotonic
// cursor — clients resume a stream with ?since=<seq>.
type ClusterEvent struct {
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	Type   string    `json:"type"`
	Node   string    `json:"node,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Event types recorded by the coordinator. The set is closed by
// construction — new transitions mean new constants — which keeps any
// per-type metric cardinality bounded.
const (
	EventMemberSuspected      = "member-suspected"
	EventMemberVindicated     = "member-vindicated"
	EventMemberDead           = "member-dead"
	EventMemberRevived        = "member-revived"
	EventDrainStart           = "drain-start"
	EventDrainEnd             = "drain-end"
	EventMemRungChange        = "mem-rung-change"
	EventRingSwap             = "ring-swap"
	EventReplicationExhausted = "replication-exhausted"
)

// EventLog is a bounded, optionally durable ring of ClusterEvents.
// The newest capacity events are kept in memory for /v1/cluster/events
// and /debugz; when a path is configured every event is also appended
// as NDJSON, and the file is compacted back to the ring contents
// whenever it outgrows a fixed budget — so the on-disk form is bounded
// too, and a restarted coordinator replays the tail to resume its Seq
// cursor where it left off.
type EventLog struct {
	mu       sync.Mutex
	ring     ring[ClusterEvent]
	seq      int64
	path     string
	f        *os.File
	fileSize int64
}

// DefaultEventLogSize bounds the in-memory ring when NewEventLog is
// given a non-positive capacity.
const DefaultEventLogSize = 1024

// eventLogMaxFileBytes is the on-disk budget; past it the NDJSON file
// is rewritten from the in-memory ring.
const eventLogMaxFileBytes = 4 << 20

// NewEventLog builds a ring of n events (<= 0 selects
// DefaultEventLogSize). A non-empty path makes the log durable: events
// append to the NDJSON file, and an existing file is replayed so Seq
// continues across restarts. A replay error is returned but the log is
// still usable (memory-only).
func NewEventLog(n int, path string) (*EventLog, error) {
	if n <= 0 {
		n = DefaultEventLogSize
	}
	l := &EventLog{ring: newRing[ClusterEvent](n), path: path}
	if path == "" {
		return l, nil
	}
	if err := l.replay(); err != nil {
		return l, fmt.Errorf("event log replay %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return l, fmt.Errorf("event log open %s: %w", path, err)
	}
	if st, err := f.Stat(); err == nil {
		l.fileSize = st.Size()
	}
	l.f = f
	return l, nil
}

// replay loads an existing NDJSON file into the ring. Unparseable lines
// (a torn final append from a crash) are skipped.
func (l *EventLog) replay() error {
	f, err := os.Open(l.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev ClusterEvent
		if json.Unmarshal(line, &ev) != nil || ev.Seq == math.MaxInt64 {
			continue // torn append, or a cursor Add could never advance
		}
		l.ring.push(ev)
		if ev.Seq >= l.seq {
			l.seq = ev.Seq
		}
	}
	return sc.Err()
}

// Add records an event, assigning the next Seq, and returns it. Nil-safe
// so call sites don't need to guard a disabled log.
func (l *EventLog) Add(typ, node, detail string) ClusterEvent {
	if l == nil {
		return ClusterEvent{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev := ClusterEvent{Seq: l.seq, Time: time.Now().UTC(), Type: typ, Node: node, Detail: detail}
	l.ring.push(ev)
	if l.f != nil {
		b, _ := json.Marshal(ev)
		b = append(b, '\n')
		if n, err := l.f.Write(b); err == nil {
			l.fileSize += int64(n)
			if l.fileSize > eventLogMaxFileBytes {
				l.compactLocked()
			}
		}
	}
	return ev
}

// compactLocked rewrites the file to the current ring contents. A
// failure leaves the old (oversized) file in place; durability degrades
// rather than the coordinator failing.
func (l *EventLog) compactLocked() {
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	w := bufio.NewWriter(f)
	for _, ev := range l.eventsLocked(0, 0) {
		b, _ := json.Marshal(ev)
		w.Write(b)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return
	}
	l.f.Close()
	nf, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return
	}
	l.f = nf
	if st, err := nf.Stat(); err == nil {
		l.fileSize = st.Size()
	}
}

// eventsLocked returns ring events with Seq > since, oldest first,
// capped at max (0 = no cap).
func (l *EventLog) eventsLocked(since int64, max int) []ClusterEvent {
	out := make([]ClusterEvent, 0, l.ring.len())
	for i := 0; i < l.ring.len(); i++ {
		if ev := l.ring.at(i); ev.Seq > since {
			out = append(out, ev)
		}
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Since returns buffered events with Seq > since, oldest first, capped
// at max (<= 0 means no cap), plus the latest cursor a client should
// resume from. Events older than the ring capacity are gone — a client
// that falls too far behind silently skips them, which the Seq gap
// makes detectable.
func (l *EventLog) Since(since int64, max int) ([]ClusterEvent, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eventsLocked(since, max), l.seq
}

// Total reports how many events were ever recorded (including any
// replayed from disk and those since evicted from the ring).
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.total()
}

// Close releases the backing file, if any.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
