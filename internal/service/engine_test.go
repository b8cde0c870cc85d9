package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gspc/internal/harness"
	"gspc/internal/leakcheck"
)

// countingRunner returns a stub Run that counts invocations and produces
// a deterministic result per request.
func countingRunner(calls *int64) func(context.Context, Request) (*harness.Result, error) {
	return func(_ context.Context, r Request) (*harness.Result, error) {
		atomic.AddInt64(calls, 1)
		return &harness.Result{Experiment: r.Experiment, Title: "stub", Scale: r.Scale}, nil
	}
}

// gatedRunner blocks each run until release is closed; started is
// signalled once per run as it begins.
func gatedRunner(started chan<- string, release <-chan struct{}, calls *int64) func(context.Context, Request) (*harness.Result, error) {
	return func(_ context.Context, r Request) (*harness.Result, error) {
		atomic.AddInt64(calls, 1)
		if started != nil {
			started <- r.Experiment
		}
		<-release
		return &harness.Result{Experiment: r.Experiment, Title: "stub"}, nil
	}
}

// discardLogger drops every record; tests that assert on log output
// install their own handler instead.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	leakcheck.Check(t)
	if cfg.Logger == nil {
		cfg.Logger = discardLogger() // keep injected-panic stacks out of test output
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	return e
}

func TestCacheHitSkipsRecomputation(t *testing.T) {
	var calls int64
	e := newTestEngine(t, Config{Workers: 2, CacheEntries: 8, Run: countingRunner(&calls)})

	req := Request{Experiment: "fig12", Frames: 1}
	first, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("runner invoked %d times, want 1 (second call must be a cache hit)", got)
	}
	if !second.Cached || first.Cached {
		t.Errorf("cache flags wrong: first=%v second=%v", first.Cached, second.Cached)
	}
	if !bytes.Equal(first.Body, second.Body) {
		t.Errorf("cached body differs:\n%s\n%s", first.Body, second.Body)
	}
	if second.RunID != first.RunID {
		t.Errorf("cached reply names run %s, want the computing run %s", second.RunID, first.RunID)
	}
	m := e.Metrics()
	if m.CacheHits != 1 || m.Completed != 1 || m.Requests != 2 {
		t.Errorf("metrics = %+v, want 1 hit / 1 completed / 2 requests", m)
	}
}

func TestCoalescingSharesOneComputation(t *testing.T) {
	var calls int64
	started := make(chan string, 1)
	release := make(chan struct{})
	e := newTestEngine(t, Config{Workers: 2, CacheEntries: 8, Run: gatedRunner(started, release, &calls)})

	req := Request{Experiment: "fig1", Frames: 1}
	const n = 8
	replies := make([]*Reply, n)
	errs := make([]error, n)
	var wg sync.WaitGroup

	// Lead request occupies the worker...
	wg.Add(1)
	go func() { defer wg.Done(); replies[0], errs[0] = e.Do(context.Background(), req) }()
	<-started

	// ...and every concurrent identical request coalesces onto its job.
	for i := 1; i < n; i++ {
		i := i
		wg.Add(1)
		go func() { defer wg.Done(); replies[i], errs[i] = e.Do(context.Background(), req) }()
	}
	// Wait until all followers are registered before releasing the run.
	deadline := time.After(5 * time.Second)
	for {
		m := e.Metrics()
		if m.Coalesced >= n-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("followers never coalesced: %+v", m)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("runner invoked %d times for %d identical requests, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(replies[i].Body, replies[0].Body) {
			t.Errorf("reply %d body differs from lead", i)
		}
		if replies[i].RunID != replies[0].RunID {
			t.Errorf("reply %d run id %s differs from lead %s", i, replies[i].RunID, replies[0].RunID)
		}
	}
	if m := e.Metrics(); m.Coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", m.Coalesced, n-1)
	}
}

func TestBackpressureWhenQueueFull(t *testing.T) {
	var calls int64
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: 8,
		Run: gatedRunner(started, release, &calls)})

	// First job occupies the single worker.
	if _, _, err := e.Submit(Request{Experiment: "fig1"}); err != nil {
		t.Fatal(err)
	}
	<-started
	// Second distinct job fills the queue.
	if _, _, err := e.Submit(Request{Experiment: "fig4"}); err != nil {
		t.Fatal(err)
	}
	// Third distinct job must be rejected with backpressure.
	_, _, err := e.Submit(Request{Experiment: "fig5"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	// An identical request still coalesces rather than rejecting.
	if _, _, err := e.Submit(Request{Experiment: "fig4"}); err != nil {
		t.Errorf("identical request rejected instead of coalesced: %v", err)
	}
	if m := e.Metrics(); m.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", m.Rejected)
	}
}

func TestPolicyBackedEvictionRecomputes(t *testing.T) {
	var calls int64
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 2,
		Run: countingRunner(&calls)})

	ctx := context.Background()
	reqs := []Request{
		{Experiment: "fig1"},
		{Experiment: "fig4"},
		{Experiment: "fig5"},
	}
	for _, r := range reqs {
		if _, err := e.Do(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if m := e.Metrics(); m.CacheEvictions != 1 || m.CacheEntries != 2 {
		t.Fatalf("metrics after 3 distinct runs = %+v, want 1 eviction and 2 resident", m)
	}
	// fig1 was least recently used and must have been evicted: re-running
	// it recomputes.
	before := atomic.LoadInt64(&calls)
	rep, err := e.Do(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached || atomic.LoadInt64(&calls) != before+1 {
		t.Error("evicted entry served from cache instead of recomputing")
	}
	// fig5 is still resident.
	rep, err = e.Do(ctx, reqs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cached {
		t.Error("resident entry recomputed")
	}
}

func TestGracefulDrain(t *testing.T) {
	var calls int64
	// Buffered past the job count: later drained jobs also signal started.
	started := make(chan string, 8)
	release := make(chan struct{})
	e, err := NewEngine(Config{Workers: 1, QueueDepth: 4, CacheEntries: 8,
		Logger: discardLogger(), Run: gatedRunner(started, release, &calls)})
	if err != nil {
		t.Fatal(err)
	}

	running, _, err := e.Submit(Request{Experiment: "fig1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := e.Submit(Request{Experiment: "fig4"})
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- e.Shutdown(ctx)
	}()

	// New work is refused as soon as shutdown begins.
	deadline := time.After(5 * time.Second)
	for {
		_, _, err := e.Submit(Request{Experiment: "fig5"})
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("submissions still accepted after Shutdown")
		case <-time.After(time.Millisecond):
		}
	}

	close(release) // let the running and queued jobs finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, job := range []*Job{running, queued} {
		st, ok := e.JobStatus(job.ID)
		if !ok || st.Status != StatusDone {
			t.Errorf("job %s drained to status %v, want done", job.ID, st.Status)
		}
	}
	// At least the two tracked jobs drained; a fig5 submission may have
	// slipped in before closing flipped, which also drains.
	if got := atomic.LoadInt64(&calls); got < 2 {
		t.Errorf("runner invoked %d times, want >= 2 (both tracked jobs drained)", got)
	}
}

func TestFailedJobPropagatesError(t *testing.T) {
	boom := errors.New("trace synthesis exploded")
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8,
		Run: func(context.Context, Request) (*harness.Result, error) { return nil, boom }})

	job, _, err := e.Submit(Request{Experiment: "fig1"})
	if err != nil {
		t.Fatal(err)
	}
	<-job.done
	if _, err := e.replyFor(job); !errors.Is(err, boom) {
		t.Errorf("reply error = %v, want the runner's error", err)
	}
	st, _ := e.JobStatus(job.ID)
	if st.Status != StatusFailed || st.Error == "" {
		t.Errorf("status = %+v, want failed with message", st)
	}
	// Failures are not cached: the next identical request runs again.
	if _, _, err := e.Submit(Request{Experiment: "fig1"}); err != nil {
		t.Errorf("resubmit after failure: %v", err)
	}
	if m := e.Metrics(); m.Failed != 1 || m.CacheHits != 0 {
		t.Errorf("metrics = %+v, want 1 failure and no cache hits", m)
	}
}

func TestFinishedJobRetentionBound(t *testing.T) {
	var calls int64
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 0, KeepFinished: 3,
		Run: countingRunner(&calls)})
	ctx := context.Background()
	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		job, _, err := e.Submit(Request{Experiment: "fig1", Frames: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-job.done:
		case <-ctx.Done():
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids[:2] {
		if _, ok := e.JobStatus(id); ok {
			t.Errorf("job %s retained beyond KeepFinished", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := e.JobStatus(id); !ok {
			t.Errorf("recent job %s pruned too early", id)
		}
	}
}

// BenchmarkEngineDoHit measures a result-cache hit through Engine.Do:
// request normalization, keying and the cache lookup; the job itself
// runs once, before the timer starts.
func BenchmarkEngineDoHit(b *testing.B) {
	e, err := NewEngine(Config{Workers: 1, CacheEntries: 8, Logger: discardLogger(),
		Run: func(_ context.Context, r Request) (*harness.Result, error) {
			return &harness.Result{Experiment: r.Experiment}, nil
		}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Shutdown(context.Background())
	req := Request{Experiment: "fig12", Apps: []string{"Dirt", "HAWX", "BioShock"}, Scale: 0.1, Frames: 1}
	if _, err := e.Do(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Do(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
