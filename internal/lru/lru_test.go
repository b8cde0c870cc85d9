package lru

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func unit(string) int64 { return 1 }

// keys lists the resident keys oldest to newest.
func keys(c *Cache[string, string]) []string {
	var out []string
	for _, e := range c.Entries() {
		out = append(out, e.Key)
	}
	return out
}

func TestPutPeekEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string](3, unit)
	for _, k := range []string{"A", "B", "C"} {
		c.Put(k, k)
	}
	if _, ok := c.Peek("A"); !ok {
		t.Fatal("A missing")
	}
	if got, want := keys(c), []string{"B", "C", "A"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("entries = %v, want %v", got, want)
	}
	c.Put("D", "D")
	if _, ok := c.Peek("B"); ok {
		t.Error("B, the least recently used entry, survived")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 1 || s.EvictedCost != 1 || s.Entries != 3 || s.Used != 3 {
		t.Errorf("stats = %+v", s)
	}
}

// TestEntriesRebuildOrder: re-Putting Entries into an empty cache
// rebuilds the same recency order, which is what snapshot restore
// relies on.
func TestEntriesRebuildOrder(t *testing.T) {
	c := New[string](4, unit)
	for _, k := range []string{"A", "B", "C", "D"} {
		c.Put(k, k)
	}
	c.Peek("B")
	c.Peek("A")
	d := New[string](4, unit)
	for _, e := range c.Entries() {
		d.Put(e.Key, e.Value)
	}
	if got, want := keys(d), keys(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored order %v, want %v", got, want)
	}
}

// TestPutFirstWriteWins: a second Put of a resident key keeps the first
// value and only refreshes the key's recency.
func TestPutFirstWriteWins(t *testing.T) {
	c := New[string](2, func(v string) int64 { return int64(len(v)) })
	c.Put("A", "a")
	c.Put("B", "b")
	c.Put("A", "zz")
	if v, _ := c.Peek("A"); v != "a" {
		t.Errorf("second Put replaced the first value: %q", v)
	}
	if got := keys(c); !reflect.DeepEqual(got, []string{"B", "A"}) {
		t.Errorf("second Put did not refresh A: entries = %v", got)
	}
	if s := c.Stats(); s.Used != 2 {
		t.Errorf("used = %d, want 2 (the first value's cost)", s.Used)
	}
}

func TestOversizeAndZeroBudget(t *testing.T) {
	c := New[string](2, func(v string) int64 { return int64(len(v)) })
	v, out, err := c.Get(context.Background(), "big", func(context.Context) (string, error) { return "xyz", nil })
	if err != nil || out != Miss || v != "xyz" {
		t.Fatalf("Get = %q %v %v", v, out, err)
	}
	if c.Len() != 0 {
		t.Error("a value costing more than the budget was retained")
	}
	z := New[string](0, unit)
	z.Put("A", "a")
	if _, ok := z.Peek("A"); ok || z.Len() != 0 {
		t.Error("zero-budget cache retained an entry")
	}
}

func TestSetBudgetShrinks(t *testing.T) {
	c := New[string](4, unit)
	for _, k := range []string{"A", "B", "C", "D"} {
		c.Put(k, k)
	}
	c.SetBudget(2)
	if got := keys(c); !reflect.DeepEqual(got, []string{"C", "D"}) {
		t.Errorf("after shrink entries = %v", got)
	}
	if s := c.Stats(); s.Budget != 2 || s.Evictions != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGetOutcomes(t *testing.T) {
	c := New[string](4, unit)
	ctx := context.Background()
	fill := func(context.Context) (string, error) { return "v", nil }
	if _, out, _ := c.Get(ctx, "k", fill); out != Miss {
		t.Errorf("first Get = %v, want miss", out)
	}
	if _, out, _ := c.Get(ctx, "k", fill); out != Hit {
		t.Errorf("second Get = %v, want hit", out)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, out, err := c.Get(dead, "k", fill); out != Cancelled || !errors.Is(err, context.Canceled) {
		t.Errorf("dead ctx Get = %v %v, want cancelled", out, err)
	}
	for o, want := range []string{"hit", "miss", "coalesced", "cancelled"} {
		if got := Outcome(o).String(); got != want {
			t.Errorf("Outcome(%d) = %q, want %q", o, got, want)
		}
	}
}

// TestCoalescedFill parks waiters on one slow fill: exactly one fill
// runs, every waiter reports coalesced, and all share the value.
func TestCoalescedFill(t *testing.T) {
	c := New[string](4, unit)
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	go c.Get(context.Background(), "k", func(context.Context) (string, error) {
		close(leaderIn)
		<-gate
		return "v", nil
	})
	<-leaderIn
	const waiters = 4
	var wg sync.WaitGroup
	outs := make([]Outcome, waiters)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Get(context.Background(), "k", func(context.Context) (string, error) {
				t.Error("a waiter ran its own fill")
				return "", nil
			})
			if err != nil || v != "v" {
				t.Errorf("waiter got %q %v", v, err)
			}
			outs[i] = out
		}(i)
	}
	for c.Stats().Coalesced < waiters { // every waiter parked on the call
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	for i, o := range outs {
		if o != Coalesced {
			t.Errorf("waiter %d outcome %v, want coalesced", i, o)
		}
	}
}

// TestLeaderFailureRecoalesces: when the leader's fill fails, the
// waiters still parked on it elect one new leader among themselves
// instead of each running its own fill.
func TestLeaderFailureRecoalesces(t *testing.T) {
	c := New[string](0, unit) // retains nothing: only the coalescing is under test
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	go c.Get(context.Background(), "k", func(context.Context) (string, error) {
		close(leaderIn)
		<-gate
		return "", errors.New("leader failed")
	})
	<-leaderIn
	const waiters = 4
	var fills atomic.Int32
	second := make(chan struct{})
	var wg sync.WaitGroup
	outs := make([]Outcome, waiters)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Get(context.Background(), "k", func(context.Context) (string, error) {
				fills.Add(1)
				<-second
				return "v", nil
			})
			if err != nil || v != "v" {
				t.Errorf("waiter got %q %v", v, err)
			}
			outs[i] = out
		}(i)
	}
	for c.Stats().Coalesced < waiters {
		runtime.Gosched()
	}
	close(gate)
	// The new leader is in its fill once a miss beyond the first leader's
	// is counted; the other waiters then park on it again.
	for c.Stats().Misses < 2 || c.Stats().Coalesced < 2*waiters-1 {
		runtime.Gosched()
	}
	close(second)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("%d fills after the leader failed, want 1", n)
	}
	var misses, coalesced int
	for _, o := range outs {
		switch o {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		}
	}
	if misses != 1 || coalesced != waiters-1 {
		t.Errorf("outcomes %v, want one miss and %d coalesced", outs, waiters-1)
	}
}

// TestConcurrentMix drives Get, Put, Peek, Entries and SetBudget
// from many goroutines; under -race it is the package's concurrency
// proof, and the exit check is the budget invariant.
func TestConcurrentMix(t *testing.T) {
	c := New[string](8, unit)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprint((w*3 + i) % 16)
				switch i % 4 {
				case 0:
					c.Get(context.Background(), k, func(context.Context) (string, error) { return k, nil })
				case 1:
					c.Put(k, k)
				case 2:
					if v, ok := c.Peek(k); ok && v != k {
						t.Errorf("key %s holds %s", k, v)
					}
				default:
					c.Entries()
					c.SetBudget(int64(4 + i%8))
				}
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Used > s.Budget || int64(s.Entries) != s.Used {
		t.Errorf("budget invariant broken: %+v", s)
	}
}
