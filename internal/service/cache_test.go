package service

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"gspc/internal/workload"
)

func TestRequestNormalizeAndKey(t *testing.T) {
	base, err := Request{Experiment: "fig12"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.Scale != 0.25 || base.CapacityFactor != 1.5 {
		t.Fatalf("defaults not applied: %+v", base)
	}

	// Every spelling of the defaults shares the base key.
	spellings := []Request{
		{Experiment: "fig12", Scale: 0.25},
		{Experiment: "fig12", Scale: 0.25, CapacityFactor: 1.5},
		{Experiment: "fig12", Workers: 7}, // parallelism never changes results
		{Experiment: "fig12", Frames: -1},
	}
	for _, r := range spellings {
		n, err := r.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%+v): %v", r, err)
		}
		if n.Key() != base.Key() {
			t.Errorf("key for %+v = %s, want %s", r, n.Key(), base.Key())
		}
	}

	// Different computations get different keys.
	for _, r := range []Request{
		{Experiment: "fig1"},
		{Experiment: "fig12", Scale: 0.5},
		{Experiment: "fig12", Frames: 1},
		{Experiment: "fig12", Apps: []string{"Dirt"}},
	} {
		n, err := r.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%+v): %v", r, err)
		}
		if n.Key() == base.Key() {
			t.Errorf("distinct request %+v collided with base key", r)
		}
	}
}

// TestRequestNormalizeAllocs bounds the allocations of normalizing a
// 3-app request. Normalize runs on every submit, cache hits included,
// so its lookups must go against the profile and experiment tables
// built once per process; the one allocation left is the canonical app
// list itself.
func TestRequestNormalizeAllocs(t *testing.T) {
	req := Request{Experiment: "fig12", Apps: []string{"HAWX", "Dirt", "BioShock"}}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Normalize of a 3-app request allocates %v times, want at most 1", n)
	}
}

func TestRequestNormalizeApps(t *testing.T) {
	a, err := Request{Experiment: "fig1", Apps: []string{"Dirt", "AssnCreed", "Dirt", " "}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Request{Experiment: "fig1", Apps: []string{"AssnCreed", "Dirt"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("app order/duplicates changed the key: %v vs %v", a.Apps, b.Apps)
	}

	// Spelling out the full suite is the same computation as the default.
	var all []string
	for _, p := range workload.Profiles() {
		all = append(all, p.Abbrev)
	}
	full, err := Request{Experiment: "fig1", Apps: all}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	def, _ := Request{Experiment: "fig1"}.Normalize()
	if full.Key() != def.Key() {
		t.Error("explicit full app list did not collapse to the default key")
	}

	if _, err := (Request{Experiment: "fig1", Apps: []string{"NoSuchGame"}}).Normalize(); err == nil {
		t.Error("unknown application accepted")
	}
	if _, err := (Request{Experiment: "nope"}).Normalize(); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := (Request{Experiment: "fig1", Scale: 9}).Normalize(); err == nil {
		t.Error("absurd scale accepted")
	}
	for _, r := range []Request{
		{Experiment: "fig1", Scale: math.NaN()},
		{Experiment: "fig12", CapacityFactor: 1e6},
		{Experiment: "fig12", CapacityFactor: 4.5},
		{Experiment: "fig12", CapacityFactor: math.Inf(1)},
		{Experiment: "fig12", CapacityFactor: math.Inf(-1)},
		{Experiment: "fig12", CapacityFactor: math.NaN()},
	} {
		var bad *BadRequestError
		if _, err := r.Normalize(); !errors.As(err, &bad) {
			t.Errorf("Normalize(scale %g, capacity_factor %g) = %v, want a BadRequestError", r.Scale, r.CapacityFactor, err)
		}
	}
	if n, err := (Request{Experiment: "fig12", CapacityFactor: 4}).Normalize(); err != nil || n.CapacityFactor != 4 {
		t.Errorf("capacity_factor 4 (the bound) = %+v, %v", n, err)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	va, vb, vc := &cached{runID: "a"}, &cached{runID: "b"}, &cached{runID: "c"}
	c.Put("A", va)
	c.Put("B", vb)
	c.Get("A") // A becomes most recently used
	c.Put("C", vc)

	if _, ok := c.Get("B"); ok {
		t.Error("LRU cache kept B, the least recently used entry")
	}
	if v, ok := c.Get("A"); !ok || v.runID != "a" {
		t.Error("LRU cache evicted the recently touched A")
	}
	if v, ok := c.Get("C"); !ok || v.runID != "c" {
		t.Error("LRU cache lost the newest entry C")
	}
	if _, _, ev := c.counters(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestResultCacheFirstValueWins(t *testing.T) {
	c := newResultCache(2)
	c.Put("A", &cached{runID: "first"})
	c.Put("A", &cached{runID: "second"})
	if v, _ := c.Get("A"); v.runID != "first" {
		t.Errorf("re-Put replaced the deterministic original: got %s", v.runID)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.Put("A", &cached{})
	if _, ok := c.Get("A"); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache holds %d entries", c.Len())
	}
}

// TestResultCacheEvictionRacesPeek drives Put-driven evictions through
// a small cache while a reader peeks hot keys and samples the gauges,
// so -race exercises the eviction decrement against the readers. The
// exit check is the invariant the memory governor depends on: the byte
// gauge equals the sum of the resident bodies.
func TestResultCacheEvictionRacesPeek(t *testing.T) {
	c := newResultCache(8)
	hot := []string{"h0", "h1", "h2", "h3"}
	for _, k := range hot {
		c.Put(k, &cached{runID: k, body: make([]byte, 64)})
	}

	const rounds = 4000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // fill path: distinct keys force evictions
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			c.Put(fmt.Sprintf("e%d", i), &cached{runID: "e", body: make([]byte, i%129)})
		}
	}()
	go func() { // governor path: sample the gauges mid-churn
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			c.Get(hot[i%len(hot)])
			if c.Bytes() < 0 {
				panic("negative byte gauge")
			}
			c.Len()
		}
	}()
	wg.Wait()

	var want int64
	for _, e := range c.Export() {
		want += int64(len(e.Body))
	}
	if got := c.Bytes(); got != want {
		t.Errorf("byte gauge %d diverged from %d resident body bytes", got, want)
	}
	if got := c.Len(); got > 8 {
		t.Errorf("Len = %d entries exceed capacity 8", got)
	}
}
