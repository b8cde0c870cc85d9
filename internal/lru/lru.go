// Package lru is the process's one keyed cache: a concurrency-safe,
// cost-budgeted, least-recently-used map with singleflight fills. Four
// instances serve the system:
//
//   - the frame-trace cache (internal/tracecache, cost = packed trace
//     bytes);
//   - gspcd's result cache (internal/service, cost = one per entry);
//   - the coordinator's cluster-wide coalescing table
//     (internal/cluster, budget 0: it deduplicates concurrent forwards
//     of one key and retains nothing);
//   - the coordinator's trace registry (internal/cluster, cost = one
//     per run), which keeps coordinator-side runs for trace stitching.
//
// Every value is written once: nothing overwrites a resident key, so a
// key names one value for as long as it stays resident.
//
// Get deduplicates concurrent fills of one key: one caller (the leader)
// runs fill, the rest wait on it. A waiter whose ctx dies leaves at once
// without disturbing the fill; when the leader fails, each still-live
// waiter retries — one of them becomes the new leader — so one
// cancelled request never poisons the others. A panicking fill releases
// its waiters with an error before the panic reaches the leader.
//
// Values handed out are shared: callers must treat them as immutable.
// Eviction only drops the cache's own reference.
package lru

import (
	"context"
	"fmt"
	"sync"
)

// Outcome classifies how Get answered.
type Outcome uint8

const (
	// Hit: the key was resident.
	Hit Outcome = iota
	// Miss: this caller ran the fill.
	Miss
	// Coalesced: this caller joined another caller's successful fill.
	Coalesced
	// Cancelled: ctx died before an answer arrived.
	Cancelled
)

// String names the outcome as the trace-cache span attrs spell it.
func (o Outcome) String() string {
	return [...]string{"hit", "miss", "coalesced", "cancelled"}[o]
}

// Stats is a snapshot of the cache counters. Costs are in the unit of
// the cache's cost function.
type Stats struct {
	Hits, Misses, Coalesced int64
	Evictions, EvictedCost  int64
	Entries                 int
	Used, Budget            int64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V] // recency ring through Cache.root
}

// call is one in-flight fill that concurrent lookups coalesce onto.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a keyed LRU cache. The zero value is not usable; construct
// with New.
type Cache[K comparable, V any] struct {
	cost func(V) int64

	mu       sync.Mutex
	budget   int64
	used     int64
	items    map[K]*entry[K, V]
	root     entry[K, V] // root.next = most recently used, root.prev = least
	inflight map[K]*call[V]

	hits, misses, coalesced int64
	evictions, evictedCost  int64
}

// New returns a cache holding values whose summed cost stays within
// budget. A non-positive budget retains nothing: every Get fills (still
// deduplicated against concurrent identical Gets) and Put is a no-op.
func New[K comparable, V any](budget int64, cost func(V) int64) *Cache[K, V] {
	c := &Cache[K, V]{
		cost:     cost,
		budget:   budget,
		items:    map[K]*entry[K, V]{},
		inflight: map[K]*call[V]{},
	}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Get returns the value for k, running fill on a miss. Concurrent Gets
// for one key share a single fill (see the package comment).
func (c *Cache[K, V]) Get(ctx context.Context, k K, fill func(context.Context) (V, error)) (V, Outcome, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, Cancelled, err
		}
		c.mu.Lock()
		if e, ok := c.items[k]; ok {
			c.touchLocked(e)
			c.hits++
			c.mu.Unlock()
			return e.val, Hit, nil
		}
		if cl, ok := c.inflight[k]; ok {
			c.coalesced++
			c.mu.Unlock()
			select {
			case <-cl.done:
			case <-ctx.Done():
				return zero, Cancelled, ctx.Err()
			}
			if cl.err == nil {
				return cl.val, Coalesced, nil
			}
			// The leader failed — usually its context died mid-flight.
			// Retry: the key may have been inserted by a later success, or
			// this caller becomes the new leader.
			continue
		}
		cl := &call[V]{done: make(chan struct{})}
		c.inflight[k] = cl
		c.misses++
		c.mu.Unlock()
		v, err := c.lead(ctx, k, cl, fill)
		return v, Miss, err
	}
}

// lead runs one deduplicated fill for k and publishes the outcome to
// every waiter. The deferred completion also covers a panicking fill:
// waiters are released with an error before the panic propagates, so a
// poisoned key can never hang its coalesced lookups.
func (c *Cache[K, V]) lead(ctx context.Context, k K, cl *call[V], fill func(context.Context) (V, error)) (V, error) {
	completed := false
	defer func() {
		if !completed {
			cl.err = fmt.Errorf("lru: fill of %v panicked", k)
		}
		c.mu.Lock()
		delete(c.inflight, k)
		if cl.err == nil {
			c.insertLocked(k, cl.val)
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = fill(ctx)
	completed = true
	return cl.val, cl.err
}

// Peek returns the resident value for k without ever filling. A hit
// counts and refreshes k's recency; an absent key counts as a miss.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.touchLocked(e)
	c.hits++
	return e.val, true
}

// Put stores v under k. The first write wins: a resident k keeps its
// value (and is refreshed), so deterministic results stay byte-stable.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(k, v)
}

// insertLocked adds v under k and evicts down to the budget. A value
// costing more than the whole budget is never retained; a resident k
// wins over v. Callers hold c.mu.
func (c *Cache[K, V]) insertLocked(k K, v V) {
	cost := c.cost(v)
	if cost > c.budget {
		return
	}
	if e, ok := c.items[k]; ok {
		c.touchLocked(e)
		return
	}
	e := &entry[K, V]{key: k, val: v, cost: cost}
	c.linkFrontLocked(e)
	c.items[k] = e
	c.used += cost
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the cache fits
// its budget. Callers hold c.mu.
func (c *Cache[K, V]) evictLocked() {
	for c.used > c.budget && c.root.prev != &c.root {
		e := c.root.prev
		c.unlinkLocked(e)
		delete(c.items, e.key)
		c.used -= e.cost
		c.evictions++
		c.evictedCost += e.cost
	}
}

func (c *Cache[K, V]) linkFrontLocked(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[K, V]) unlinkLocked(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) touchLocked(e *entry[K, V]) {
	c.unlinkLocked(e)
	c.linkFrontLocked(e)
}

// SetBudget changes the budget at runtime, evicting least-recently-used
// entries if the cache is now over it.
func (c *Cache[K, V]) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictLocked()
}

// Entry is one resident key and its value.
type Entry[K comparable, V any] struct {
	Key   K
	Value V
}

// Entries returns the resident entries from least to most recently
// used, so re-Putting them in order into an empty cache rebuilds the
// same recency order.
func (c *Cache[K, V]) Entries() []Entry[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[K, V], 0, len(c.items))
	for e := c.root.prev; e != &c.root; e = e.prev {
		out = append(out, Entry[K, V]{e.key, e.val})
	}
	return out
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Coalesced: c.coalesced,
		Evictions: c.evictions, EvictedCost: c.evictedCost,
		Entries: len(c.items), Used: c.used, Budget: c.budget,
	}
}
