package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gspc/internal/faultinject"
	"gspc/internal/harness"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Engine) {
	t.Helper()
	e := newTestEngine(t, cfg)
	ts := httptest.NewServer(NewServer(e))
	t.Cleanup(ts.Close)
	return ts, e
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func postRun(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestServerBasicEndpoints(t *testing.T) {
	var calls int64
	ts, _ := newTestServer(t, Config{Workers: 1, CacheEntries: 8, Run: countingRunner(&calls)})

	var health map[string]string
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != 200 || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, health)
	}

	var exps struct {
		Experiments []ExperimentInfo `json:"experiments"`
	}
	getJSON(t, ts.URL+"/v1/experiments", &exps)
	if len(exps.Experiments) != len(harness.All())+len(harness.Extensions()) {
		t.Errorf("experiments listed %d, want %d", len(exps.Experiments), len(harness.All())+len(harness.Extensions()))
	}
	found := false
	for _, e := range exps.Experiments {
		if e.ID == "fig12" && e.Kind == "paper" {
			found = true
		}
	}
	if !found {
		t.Error("fig12 missing from experiment list")
	}

	if resp, body := postRun(t, ts.URL, `{"experiment":"nope"}`); resp.StatusCode != 400 {
		t.Errorf("unknown experiment: %d %s", resp.StatusCode, body)
	}
	if resp, body := postRun(t, ts.URL, `{broken`); resp.StatusCode != 400 {
		t.Errorf("malformed body: %d %s", resp.StatusCode, body)
	}
	if resp := getJSON(t, ts.URL+"/v1/runs/run-999999", nil); resp.StatusCode != 404 {
		t.Errorf("unknown run id: %d", resp.StatusCode)
	}

	var m Metrics
	getJSON(t, ts.URL+"/metricsz", &m)
	if m.QueueCapacity == 0 || m.CacheCapacity == 0 {
		t.Errorf("metricsz = %+v", m)
	}
}

func TestServerAsyncRunLifecycle(t *testing.T) {
	var calls int64
	started := make(chan string, 1)
	release := make(chan struct{})
	ts, _ := newTestServer(t, Config{Workers: 1, CacheEntries: 8,
		Run: gatedRunner(started, release, &calls)})

	resp, body := func() (*http.Response, []byte) {
		r, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json",
			strings.NewReader(`{"experiment":"fig4","frames":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, b
	}()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST = %d %s", resp.StatusCode, body)
	}
	var acc map[string]string
	if err := json.Unmarshal(body, &acc); err != nil || acc["id"] == "" {
		t.Fatalf("async POST body %s: %v", body, err)
	}
	loc := resp.Header.Get("Location")
	if loc != "/v1/runs/"+acc["id"] {
		t.Errorf("Location = %q", loc)
	}

	<-started // the worker picked the job up
	close(release)
	deadline := time.After(5 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts.URL+loc, &st)
		if st.Status == StatusDone {
			if len(st.Result) == 0 {
				t.Error("done job status has no result")
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job never finished: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("runner calls = %d, want 1", got)
	}
}

// TestServerEndToEndCachedReplay is the acceptance flow: POST the same
// real experiment twice and require a byte-identical, cache-served,
// faster second response. tab1 needs no trace synthesis, so the real
// harness stays fast enough for -race.
func TestServerEndToEndCachedReplay(t *testing.T) {
	ts, e := newTestServer(t, Config{Workers: 2, CacheEntries: 16})

	body := `{"experiment":"tab1"}`
	resp1, b1 := postRun(t, ts.URL, body)
	if resp1.StatusCode != 200 {
		t.Fatalf("first POST = %d %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Gspc-Cache"); got != "miss" {
		t.Errorf("first POST cache disposition = %q, want miss", got)
	}
	resp2, b2 := postRun(t, ts.URL, body)
	if resp2.StatusCode != 200 {
		t.Fatalf("second POST = %d %s", resp2.StatusCode, b2)
	}
	if got := resp2.Header.Get("X-Gspc-Cache"); got != "hit" {
		t.Errorf("second POST cache disposition = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cached replay not byte-identical:\n%s\n%s", b1, b2)
	}
	if resp2.Header.Get("X-Gspc-Run") != resp1.Header.Get("X-Gspc-Run") {
		t.Error("cached replay names a different run")
	}

	var res harness.Result
	if err := json.Unmarshal(b1, &res); err != nil {
		t.Fatalf("result body not a harness.Result: %v", err)
	}
	if res.Experiment != "tab1" || len(res.Table.Rows) == 0 || res.Rendered == "" {
		t.Errorf("result incomplete: %+v", res)
	}

	m := e.Metrics()
	if m.CacheHits != 1 || m.Completed != 1 {
		t.Errorf("metrics = %+v, want exactly one computation and one hit", m)
	}
	if m.LatencyP50Ms <= 0 {
		t.Errorf("latency percentiles missing: %+v", m)
	}
}

// TestServerEndToEndFig12 runs the full acceptance criterion — fig12 at
// frames=1 twice — against the real harness. ~12s of simulation, so
// -short skips it.
func TestServerEndToEndFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 runs the full 12-app suite; skipped with -short")
	}
	ts, e := newTestServer(t, Config{Workers: 2, CacheEntries: 16})

	body := `{"experiment":"fig12","frames":1}`
	start := time.Now()
	resp1, b1 := postRun(t, ts.URL, body)
	coldLatency := time.Since(start)
	if resp1.StatusCode != 200 {
		t.Fatalf("first POST = %d %s", resp1.StatusCode, b1)
	}
	start = time.Now()
	resp2, b2 := postRun(t, ts.URL, body)
	warmLatency := time.Since(start)
	if resp2.StatusCode != 200 {
		t.Fatalf("second POST = %d %s", resp2.StatusCode, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("fig12 cached replay not byte-identical")
	}
	if got := resp2.Header.Get("X-Gspc-Cache"); got != "hit" {
		t.Errorf("second POST disposition = %q, want hit", got)
	}
	if m := e.Metrics(); m.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", m.CacheHits)
	}
	if warmLatency > coldLatency/10 {
		t.Errorf("cached replay latency %v not clearly below cold %v", warmLatency, coldLatency)
	}
	var res harness.Result
	if err := json.Unmarshal(b1, &res); err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Mean["GSPC+UCD"]; !ok {
		t.Errorf("fig12 result missing GSPC+UCD mean: %v", res.Mean)
	}
}

// --- fault-tolerance surface ---

func postRunURL(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func errCategory(t *testing.T, body []byte) string {
	t.Helper()
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %s: %v", body, err)
	}
	return e["category"]
}

func TestServerReadyzLifecycle(t *testing.T) {
	var calls int64
	started := make(chan string, 4)
	release := make(chan struct{})
	ts, e := newTestServer(t, Config{Workers: 1, QueueDepth: 2, ReadyHighWater: 1,
		CacheEntries: 8, Run: gatedRunner(started, release, &calls)})

	var st map[string]any
	if resp := getJSON(t, ts.URL+"/readyz", &st); resp.StatusCode != 200 || st["status"] != "ready" {
		t.Fatalf("idle readyz = %d %v", resp.StatusCode, st)
	}
	// The body carries the load signals a cluster coordinator routes on.
	if st["queue_capacity"] != float64(2) || st["draining"] != false {
		t.Fatalf("idle readyz body = %v, want queue_capacity 2 draining false", st)
	}

	// One running + one queued job puts the queue at the high-water mark.
	if _, _, err := e.Submit(Request{Experiment: "fig1"}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, _, err := e.Submit(Request{Experiment: "fig4"}); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, ts.URL+"/readyz", &st); resp.StatusCode != 503 || st["status"] != "unready" {
		t.Errorf("saturated readyz = %d %v, want 503 unready", resp.StatusCode, st)
	}
	// Liveness is unaffected by saturation.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Errorf("healthz under load = %d, want 200", resp.StatusCode)
	}

	close(release)
	waitFor(t, func() bool {
		resp := getJSON(t, ts.URL+"/readyz", nil)
		return resp.StatusCode == 200
	})

	// A draining engine is unready but alive.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, ts.URL+"/readyz", &st); resp.StatusCode != 503 || st["reason"] != "draining" {
		t.Errorf("draining readyz = %d %v, want 503 draining", resp.StatusCode, st)
	}
	if st["draining"] != true {
		t.Errorf("draining readyz body = %v, want draining true", st)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Errorf("healthz while draining = %d, want 200", resp.StatusCode)
	}
}

func TestServerTimeoutQueryMapsTo504(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, CacheEntries: 8, Run: sleepyRunner(time.Hour)})

	resp, body := postRunURL(t, ts.URL, "/v1/runs?timeout_ms=200", `{"experiment":"fig1"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out run = %d %s, want 504", resp.StatusCode, body)
	}
	if got := errCategory(t, body); got != "timeout" {
		t.Errorf("category = %q, want timeout", got)
	}
	resp, body = postRunURL(t, ts.URL, "/v1/runs?timeout_ms=banana", `{"experiment":"fig1"}`)
	if resp.StatusCode != http.StatusBadRequest || errCategory(t, body) != "invalid" {
		t.Errorf("bad timeout_ms = %d %s, want 400 invalid", resp.StatusCode, body)
	}
	resp, body = postRunURL(t, ts.URL, "/v1/runs", `{"experiment":"fig1","timeout_ms":-5}`)
	if resp.StatusCode != http.StatusBadRequest || errCategory(t, body) != "invalid" {
		t.Errorf("negative body timeout_ms = %d %s, want 400 invalid", resp.StatusCode, body)
	}
}

func TestServerPanicMapsTo500(t *testing.T) {
	inj := faultinject.NewSequence(faultinject.Panic())
	ts, _ := newTestServer(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
		Run: injectedRunner(inj, nil)})

	resp, body := postRun(t, ts.URL, `{"experiment":"fig1"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked run = %d %s, want 500", resp.StatusCode, body)
	}
	if got := errCategory(t, body); got != "panic" {
		t.Errorf("category = %q, want panic", got)
	}
	var m Metrics
	getJSON(t, ts.URL+"/metricsz", &m)
	if m.Panics != 1 {
		t.Errorf("metricsz panics = %d, want 1", m.Panics)
	}
	// The server survived the panic.
	if resp, b := postRun(t, ts.URL, `{"experiment":"fig4"}`); resp.StatusCode != 200 {
		t.Errorf("post-panic run = %d %s, want 200", resp.StatusCode, b)
	}
}

func TestServerBreakerMapsTo503RetryAfter(t *testing.T) {
	inj := faultinject.NewSequence(faultinject.Fail())
	ts, _ := newTestServer(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
		BreakerThreshold: 1, BreakerCooldown: time.Minute, Run: injectedRunner(inj, nil)})

	if resp, body := postRun(t, ts.URL, `{"experiment":"fig1"}`); resp.StatusCode != 500 {
		t.Fatalf("tripping run = %d %s, want 500", resp.StatusCode, body)
	}
	resp, body := postRun(t, ts.URL, `{"experiment":"fig1","frames":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker run = %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-second hint", ra)
	}
}

func TestServerStaleDisposition(t *testing.T) {
	inj := faultinject.NewSequence(faultinject.Pass(), faultinject.Fail())
	ts, _ := newTestServer(t, Config{Workers: 1, CacheEntries: 8, MaxRetries: -1,
		BreakerThreshold: 1, BreakerCooldown: time.Minute, ServeStale: true,
		Run: injectedRunner(inj, nil)})

	_, good := postRun(t, ts.URL, `{"experiment":"fig1"}`)
	postRun(t, ts.URL, `{"experiment":"fig1","frames":2}`) // opens the breaker
	resp, body := postRun(t, ts.URL, `{"experiment":"fig1","frames":3}`)
	if resp.StatusCode != 200 {
		t.Fatalf("stale-served run = %d %s, want 200", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Gspc-Cache"); got != "stale" {
		t.Errorf("disposition = %q, want stale", got)
	}
	if !bytes.Equal(body, good) {
		t.Error("stale body differs from the last good result")
	}
}

func TestServerAdmissionControl(t *testing.T) {
	var calls int64
	ts, _ := newTestServer(t, Config{Workers: 1, CacheEntries: 8, MaxWork: 0.0001,
		Run: countingRunner(&calls)})

	resp, body := postRun(t, ts.URL, `{"experiment":"fig1"}`)
	if resp.StatusCode != http.StatusBadRequest || errCategory(t, body) != "invalid" {
		t.Errorf("over-ceiling run = %d %s, want 400 invalid", resp.StatusCode, body)
	}
	if atomic.LoadInt64(&calls) != 0 {
		t.Error("rejected request reached the runner")
	}
}
