package service

import (
	"gspc/internal/durable"
	"gspc/internal/lru"
)

// resultCache is the engine's result store: an lru.Cache costed one per
// entry, so its budget is the -cache-entries capacity and 0 disables
// caching (every lookup misses, Put is a no-op).
type resultCache struct{ *lru.Cache[string, *cached] }

// cached is one stored result: the struct for API consumers plus the
// exact JSON bytes of the first computation, so replays are
// byte-identical, and the id of the job that computed it.
type cached struct {
	body  []byte
	runID string
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{lru.New[string](int64(capacity), func(*cached) int64 { return 1 })}
}

// Get returns the cached entry for key, refreshing its recency on a hit.
func (c *resultCache) Get(key string) (*cached, bool) { return c.Peek(key) }

// Bytes sums the resident result-body bytes, the figure the memory
// governor accounts this cache at.
func (c *resultCache) Bytes() int64 {
	var n int64
	for _, e := range c.Entries() {
		n += int64(len(e.Value.body))
	}
	return n
}

// Export returns every resident entry for snapshotting, least recently
// used first, so restoring them in order with Put rebuilds the recency.
func (c *resultCache) Export() []durable.CacheEntry {
	var out []durable.CacheEntry
	for _, e := range c.Entries() {
		out = append(out, durable.CacheEntry{Key: e.Key, RunID: e.Value.runID, Body: e.Value.body})
	}
	return out
}

func (c *resultCache) counters() (hits, misses, evictions int64) {
	s := c.Stats()
	return s.Hits, s.Misses, s.Evictions
}
