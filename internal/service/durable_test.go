package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gspc/internal/faultinject"
	"gspc/internal/harness"
)

// durableStubRun returns a deterministic, schema-stamped result so
// persisted payloads pass the schema check on recovery.
func durableStubRun(ctx context.Context, r Request) (*harness.Result, error) {
	return &harness.Result{
		SchemaVersion: harness.ResultSchemaVersion,
		Experiment:    r.Experiment,
		Title:         "durable stub",
		Scale:         r.Scale,
	}, nil
}

func durableConfig(dir string) Config {
	return Config{
		Workers:      1,
		CacheEntries: -1, // default capacity (0 would disable caching)
		DataDir:      dir,
		Fsync:        true,
		Run:          durableStubRun,
		Logger:       discardLogger(),
		MaxRetries:   -1,
	}
}

// copyDataDir simulates a crash image: the on-disk bytes as they were
// at some instant, with no clean shutdown ever happening to them.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			// Subdirectories (retained traces) are observability side
			// artifacts, not part of the journal/snapshot crash image.
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableRestartServesCompletedRun: after a clean shutdown, a new
// engine on the same data dir serves the pre-restart run by its
// original id and answers an identical request from the restored
// cache with the exact original bytes.
func TestDurableRestartServesCompletedRun(t *testing.T) {
	dir := t.TempDir()
	e1, err := NewEngine(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e1.Do(context.Background(), Request{Experiment: "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown(context.Background())

	st, ok := e2.JobStatus(rep.RunID)
	if !ok {
		t.Fatalf("run %s lost across restart", rep.RunID)
	}
	if st.Status != StatusDone || string(st.Result) != string(rep.Body) {
		t.Fatalf("recovered status %s result %q", st.Status, st.Result)
	}
	// The identical request is a cache hit with the original run's id.
	rep2, err := e2.Do(context.Background(), Request{Experiment: "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Cached || rep2.RunID != rep.RunID || string(rep2.Body) != string(rep.Body) {
		t.Fatalf("restored cache: cached=%v run=%s", rep2.Cached, rep2.RunID)
	}
	m := e2.Metrics()
	if m.Durable == nil || m.Durable.Recovery.RecoveredDone != 1 || m.Durable.Recovery.CacheRestored != 1 {
		t.Fatalf("durable metrics: %+v", m.Durable)
	}
	if !m.Durable.SnapshotLoaded {
		t.Fatalf("expected snapshot restore, got %+v", m.Durable.Stats)
	}
}

// TestDurableRestartKeepsCacheRecency: a restart must not scramble the
// result cache's recency order. A, B, C fill a 3-entry cache and A is
// touched again, so B is least recently used; after a clean restart, a
// fourth result must evict B, not the freshly used A.
func TestDurableRestartKeepsCacheRecency(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CacheEntries = 3
	ctx := context.Background()
	key := func(exp string) string {
		n, err := Request{Experiment: exp}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return n.Key()
	}
	e1, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"fig1", "fig4", "fig5", "fig1"} {
		if _, err := e1.Do(ctx, Request{Experiment: exp}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown(ctx)
	if _, err := e2.Do(ctx, Request{Experiment: "fig12"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.Cached(key("fig4")); ok {
		t.Error("restored cache kept B (fig4), the least recently used entry")
	}
	for _, exp := range []string{"fig1", "fig5", "fig12"} {
		if _, ok := e2.Cached(key(exp)); !ok {
			t.Errorf("restored cache evicted %s", exp)
		}
	}
}

// TestDurableCrashRecovery boots from a crash image taken while one
// job was running and another queued: the completed job survives, the
// mid-flight job is failed-retryable, the queued job is resubmitted
// under its original id and completes.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	cfg := durableConfig(dir)
	cfg.Run = func(ctx context.Context, r Request) (*harness.Result, error) {
		if r.Frames == 2 {
			started <- struct{}{} // the job that is "running" when we crash
			<-gate
		}
		return durableStubRun(ctx, r)
	}
	e1, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 completes.
	rep, err := e1.Do(context.Background(), Request{Experiment: "fig12", Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Job 2 starts and blocks; job 3 stays queued behind it.
	running, _, err := e1.Submit(Request{Experiment: "fig12", Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := e1.Submit(Request{Experiment: "fig12", Frames: 3})
	if err != nil {
		t.Fatal(err)
	}

	crash := copyDataDir(t, dir) // power fails here
	close(gate)
	if err := e1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(durableConfig(crash))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown(context.Background())

	if st, ok := e2.JobStatus(rep.RunID); !ok || st.Status != StatusDone {
		t.Fatalf("completed run lost: ok=%v st=%+v", ok, st)
	}
	if st, ok := e2.JobStatus(running.ID); !ok || st.Status != StatusFailed {
		t.Fatalf("mid-flight job: ok=%v st=%+v", ok, st)
	} else if st.ErrorCategory != CategoryInternal {
		t.Fatalf("mid-flight category %s", st.ErrorCategory)
	}
	e2.mu.Lock()
	midErr := e2.jobs[running.ID].err
	e2.mu.Unlock()
	var typed *Error
	if !errorsAsError(midErr, &typed) || !typed.Retryable() {
		t.Fatalf("mid-flight error not retryable: %v", midErr)
	}
	// The queued job was resubmitted under its original id and runs to
	// completion on the new engine.
	waitForStatus(t, e2, queued.ID, StatusDone, 5*time.Second)
	m := e2.Metrics()
	if m.Durable.Recovery.ResubmittedQueued != 1 || m.Durable.Recovery.MarkedRetryable != 1 {
		t.Fatalf("recovery: %+v", m.Durable.Recovery)
	}
	// No duplicated ids: a fresh submission must mint an unused id.
	repNew, err := e2.Do(context.Background(), Request{Experiment: "fig12", Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, taken := range []string{rep.RunID, running.ID, queued.ID} {
		if repNew.RunID == taken {
			t.Fatalf("new run reused id %s", taken)
		}
	}
}

func errorsAsError(err error, target **Error) bool {
	for e := err; e != nil; {
		if t, ok := e.(*Error); ok {
			*target = t
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func waitForStatus(t *testing.T, e *Engine, id string, want Status, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st, ok := e.JobStatus(id); ok && st.Status == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := e.JobStatus(id)
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, st)
}

// TestDurableServeStaleSurvivesRestart: the last-good table behind
// -serve-stale is restored from disk.
func TestDurableServeStaleSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e1, err := NewEngine(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e1.Do(context.Background(), Request{Experiment: "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfg := durableConfig(dir)
	cfg.BreakerThreshold = 1
	cfg.ServeStale = true
	cfg.Run = func(ctx context.Context, r Request) (*harness.Result, error) {
		return nil, fmt.Errorf("disk on fire")
	}
	e2, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown(context.Background())
	// Different parameters -> cache miss -> real (failing) run, which
	// trips the 1-failure breaker.
	if _, err := e2.Do(context.Background(), Request{Experiment: "fig12", Frames: 5}); err == nil {
		t.Fatal("expected failure")
	}
	// Breaker open + serve-stale: answered with the pre-restart result.
	rep2, err := e2.Do(context.Background(), Request{Experiment: "fig12", Frames: 6})
	if err != nil {
		t.Fatalf("stale serve failed: %v", err)
	}
	if !rep2.Stale || string(rep2.Body) != string(rep.Body) {
		t.Fatalf("stale=%v body match=%v", rep2.Stale, string(rep2.Body) == string(rep.Body))
	}
}

// TestDurableHTTPRestart is the acceptance path end to end over HTTP:
// POST a run, "crash", boot a second server on the same files, GET
// the pre-crash id.
func TestDurableHTTPRestart(t *testing.T) {
	dir := t.TempDir()
	e1, err := NewEngine(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewServer(e1))
	resp, err := srv1.Client().Post(srv1.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"experiment":"fig12"}`))
	if err != nil {
		t.Fatal(err)
	}
	runID := resp.Header.Get("X-Gspc-Run")
	var want harness.Result
	if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	crash := copyDataDir(t, dir) // crash image before any clean shutdown
	srv1.Close()
	if err := e1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(durableConfig(crash))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown(context.Background())
	srv2 := httptest.NewServer(NewServer(e2))
	defer srv2.Close()
	resp2, err := srv2.Client().Get(srv2.URL + "/v1/runs/" + runID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("GET recovered run: %d", resp2.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone || st.ID != runID {
		t.Fatalf("recovered: %+v", st)
	}
	var got harness.Result
	if err := json.Unmarshal(st.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.Experiment != want.Experiment || got.Title != want.Title {
		t.Fatalf("result drifted: %+v vs %+v", got, want)
	}
}

// TestDurableSchemaMismatchDropped: persisted results from another
// schema version are rejected on recovery, not half-trusted.
func TestDurableSchemaMismatchDropped(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Run = func(ctx context.Context, r Request) (*harness.Result, error) {
		// A result that claims a foreign schema version.
		return &harness.Result{SchemaVersion: 99, Experiment: r.Experiment, Title: "future"}, nil
	}
	e1, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e1.Do(context.Background(), Request{Experiment: "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Shutdown(context.Background())
	st, ok := e2.JobStatus(rep.RunID)
	if !ok {
		t.Fatal("job record itself should survive")
	}
	if st.Status != StatusFailed {
		t.Fatalf("mismatched-schema result served: %+v", st)
	}
	if e2.Metrics().Durable.Recovery.SchemaDropped == 0 {
		t.Fatal("SchemaDropped not counted")
	}
}

// TestChaosEngineCrashAtEveryOffset drives a single-worker engine
// whose disk dies after n bytes, for every n up to a full healthy run,
// then reboots on the surviving bytes with a healthy disk. Whatever
// the crash point, the reboot must succeed and recovered runs must be
// internally consistent: a run recovered as done carries its exact
// original bytes, and (with one worker completing runs in order) the
// set of recovered-done runs is a prefix of the completed runs.
func TestChaosEngineCrashAtEveryOffset(t *testing.T) {
	const runs = 3
	drive := func(dir string, ffs *faultinject.FaultFS) []*Reply {
		cfg := durableConfig(dir)
		cfg.DurableFS = ffs
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("engine refused to start on faulty disk: %v", err)
		}
		var replies []*Reply
		for i := 1; i <= runs; i++ {
			rep, err := e.Do(context.Background(), Request{Experiment: "fig12", Frames: i})
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			replies = append(replies, rep)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
		return replies
	}

	// Healthy pass: learn the total bytes written and the reference
	// replies (deterministic: no timestamps in the journal).
	probe := faultinject.NewFaultFS(nil)
	healthy := drive(t.TempDir(), probe)
	total := probe.Counts().BytesWritten
	if total <= 0 {
		t.Fatalf("healthy run wrote %d bytes", total)
	}

	stride := int64(1)
	if testing.Short() {
		stride = 41
	}
	for crashAt := int64(0); crashAt <= total; crashAt += stride {
		dir := t.TempDir()
		ffs := faultinject.NewFaultFS(nil)
		ffs.CrashAfterBytes(crashAt)
		replies := drive(dir, ffs) // journal failures degrade; Do still succeeds

		// Reboot on the surviving bytes with a healthy disk.
		e2, err := NewEngine(durableConfig(dir))
		if err != nil {
			t.Fatalf("crashAt %d: reboot failed: %v", crashAt, err)
		}
		prefixEnded := false
		recovered := map[string]bool{}
		for i, rep := range replies {
			st, ok := e2.JobStatus(rep.RunID)
			doneRecovered := ok && st.Status == StatusDone
			if doneRecovered {
				recovered[rep.RunID] = true
				if prefixEnded {
					t.Fatalf("crashAt %d: run %d recovered done after run %d was lost",
						crashAt, i+1, i)
				}
				if string(st.Result) != string(healthy[i].Body) {
					t.Fatalf("crashAt %d: run %d recovered with wrong bytes: %q",
						crashAt, i+1, st.Result)
				}
			} else {
				prefixEnded = true
			}
		}
		// A fresh submission works and never collides with a recovered run.
		rep, err := e2.Do(context.Background(), Request{Experiment: "fig12", Frames: runs + 1})
		if err != nil {
			t.Fatalf("crashAt %d: post-reboot run: %v", crashAt, err)
		}
		if recovered[rep.RunID] {
			t.Fatalf("crashAt %d: new run reused recovered id %s", crashAt, rep.RunID)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e2.Shutdown(ctx)
		cancel()
	}
}
