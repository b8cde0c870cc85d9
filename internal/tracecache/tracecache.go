// Package tracecache is a concurrency-safe, byte-budgeted, LRU-evicted
// cache of synthesized frame traces. Trace synthesis — rendering a frame
// through the full pipeline and render-cache complex — costs two orders
// of magnitude more than replaying the resulting LLC trace through one
// policy, yet every experiment in internal/harness replays the same
// 52-frame suite and every gspcd job re-runs frames other jobs just
// synthesized. The cache keys a packed, read-only stream.Trace by
// (frame job, scale, render-cache config digest) in an lru.Cache costed
// in packed bytes, whose singleflight fills deduplicate concurrent
// synthesis, so the whole process pays for each distinct frame trace
// once while it stays within the byte budget.
//
// Traces handed out by Get are shared: callers must treat them as
// immutable. Eviction only drops the cache's own reference — in-flight
// replays keep theirs and the garbage collector reclaims the bytes when
// the last reader finishes.
package tracecache

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gspc/internal/lru"
	"gspc/internal/stream"
	"gspc/internal/telemetry"
)

// Key identifies one synthesized frame trace.
type Key struct {
	// Job is the frame job identity, e.g. "Dirt/0".
	Job string
	// Scale is the linear frame scale the trace was synthesized at.
	Scale float64
	// Config is the render-cache configuration digest
	// (rendercache.Config.Digest) the miss stream was filtered through.
	Config string
	// Prefix, when non-zero, marks a prefix-truncated synthesis holding
	// only the first Prefix records of the full frame trace (sampled
	// fidelity runs). Zero — the default everywhere else — is the full
	// trace, so existing keys are unchanged.
	Prefix int
}

// String renders the key for diagnostics.
func (k Key) String() string {
	if k.Prefix > 0 {
		return fmt.Sprintf("%s@%g/%s#%d", k.Job, k.Scale, k.Config, k.Prefix)
	}
	return fmt.Sprintf("%s@%g/%s", k.Job, k.Scale, k.Config)
}

// Stats is a snapshot of the cache counters (served via /metricsz).
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Coalesced    int64 `json:"coalesced"` // lookups that joined an in-flight synthesis
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	Entries      int   `json:"entries"`
	BytesUsed    int64 `json:"bytes_used"`
	BudgetBytes  int64 `json:"budget_bytes"`
	// SynthCount and SynthTotalMs time the misses' synthesis stage: the
	// wall-clock the cache is saving shows up as hits×(SynthTotalMs/SynthCount).
	SynthCount   int64   `json:"synth_count"`
	SynthTotalMs float64 `json:"synth_total_ms"`
}

// Cache is the shared frame-trace cache: an lru.Cache costed in packed
// trace bytes, plus the synthesis-time counters. The zero value is not
// usable; construct with New.
type Cache struct {
	lru        *lru.Cache[Key, *stream.Trace]
	synthCount atomic.Int64
	synthNanos atomic.Int64
}

// New returns a cache bounded by budgetBytes of packed trace data. A
// non-positive budget disables retention entirely: every lookup
// synthesizes (still deduplicated against concurrent identical lookups)
// and nothing is kept.
func New(budgetBytes int64) *Cache {
	return &Cache{lru: lru.New[Key](budgetBytes, (*stream.Trace).Bytes)}
}

// SetBudget adjusts the byte budget at runtime, evicting LRU entries if
// the cache is now over it.
func (c *Cache) SetBudget(budgetBytes int64) { c.lru.SetBudget(budgetBytes) }

// Get returns the trace for k, synthesizing it with synth on a miss.
// Concurrent Gets for the same key share one synthesis, with lru.Cache's
// waiter-cancellation and leader-failure rules. Each lookup records a
// trace-cache span whose outcome attr is hit, miss, coalesced or
// cancelled.
//
// The returned trace is shared and must be treated as read-only.
func (c *Cache) Get(ctx context.Context, k Key, synth func(ctx context.Context) (*stream.Trace, error)) (*stream.Trace, error) {
	sp := telemetry.StartFrom(ctx, k.Job, "trace-cache")
	tr, out, err := c.lru.Get(ctx, k, func(ctx context.Context) (*stream.Trace, error) {
		start := time.Now()
		tr, err := synth(ctx)
		if err == nil {
			c.synthCount.Add(1)
			c.synthNanos.Add(time.Since(start).Nanoseconds())
		}
		return tr, err
	})
	sp.Attr(telemetry.String("outcome", out.String())).End()
	return tr, err
}

// Len returns the number of resident traces.
func (c *Cache) Len() int { return c.lru.Len() }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	s := c.lru.Stats()
	return Stats{
		Hits:         s.Hits,
		Misses:       s.Misses,
		Coalesced:    s.Coalesced,
		Evictions:    s.Evictions,
		EvictedBytes: s.EvictedCost,
		Entries:      s.Entries,
		BytesUsed:    s.Used,
		BudgetBytes:  s.Budget,
		SynthCount:   c.synthCount.Load(),
		SynthTotalMs: float64(c.synthNanos.Load()) / 1e6,
	}
}
