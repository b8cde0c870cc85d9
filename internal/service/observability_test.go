package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gspc/internal/harness"
	"gspc/internal/telemetry"
)

// promLine matchers for the text exposition format (version 0.0.4).
var (
	promHelp   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promType   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)
)

// TestPromExpositionFormat drives a few jobs through the engine and
// then validates the /metrics body line by line against the exposition
// grammar — every line is a HELP comment, a TYPE comment, or a sample.
func TestPromExpositionFormat(t *testing.T) {
	boom := errors.New("invalid thing")
	e := newTestEngine(t, Config{Workers: 2, CacheEntries: 8,
		Run: func(_ context.Context, r Request) (*harness.Result, error) {
			if r.Experiment == "fig4" {
				return nil, &BadRequestError{Reason: boom.Error()}
			}
			return &harness.Result{Experiment: r.Experiment, Title: "stub"}, nil
		}})
	ctx := context.Background()
	if _, err := e.Do(ctx, Request{Experiment: "fig12"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(ctx, Request{Experiment: "fig12"}); err != nil { // cache hit
		t.Fatal(err)
	}

	body := string(e.PromExposition())
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	types := map[string]string{}
	for i, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "# HELP "):
			if !promHelp.MatchString(ln) {
				t.Errorf("line %d: malformed HELP: %q", i+1, ln)
			}
		case strings.HasPrefix(ln, "# TYPE "):
			if !promType.MatchString(ln) {
				t.Errorf("line %d: malformed TYPE: %q", i+1, ln)
			}
			f := strings.Fields(ln)
			types[f[2]] = f[3]
		default:
			if !promSample.MatchString(ln) {
				t.Errorf("line %d: malformed sample: %q", i+1, ln)
			}
		}
	}
	for _, want := range []struct{ name, typ string }{
		{"gspc_uptime_seconds", "gauge"},
		{"gspc_requests_total", "counter"},
		{"gspc_jobs_completed_total", "counter"},
		{"gspc_result_cache_hits_total", "counter"},
		{"gspc_queue_depth", "gauge"},
		{"gspc_job_duration_seconds", "histogram"},
		{"gspc_trace_cache_bytes", "gauge"},
		{"gspc_stage_busy_ms_total", "counter"},
		{"gspc_llc_stream_accesses_total", "counter"},
		{"gspc_dram_row_hits_total", "counter"},
	} {
		if got := types[want.name]; got != want.typ {
			t.Errorf("family %s has type %q, want %q", want.name, got, want.typ)
		}
	}
	if !strings.Contains(body, "gspc_requests_total 2\n") {
		t.Errorf("requests_total should be 2:\n%s", body)
	}
	if !strings.Contains(body, "gspc_result_cache_hits_total 1\n") {
		t.Errorf("cache hits should be 1:\n%s", body)
	}
	// Histogram invariants: buckets cumulative and ending at +Inf == count.
	var bucketVals []float64
	var count float64 = -1
	for _, ln := range lines {
		var v float64
		if n, _ := fmt.Sscanf(ln, "gspc_job_duration_seconds_count %g", &v); n == 1 {
			count = v
		}
		if strings.HasPrefix(ln, "gspc_job_duration_seconds_bucket{") {
			fields := strings.Fields(ln)
			fmt.Sscanf(fields[len(fields)-1], "%g", &v)
			bucketVals = append(bucketVals, v)
		}
	}
	if count != 1 {
		t.Errorf("histogram count = %g, want 1 (one computed job)", count)
	}
	for i := 1; i < len(bucketVals); i++ {
		if bucketVals[i] < bucketVals[i-1] {
			t.Errorf("histogram buckets not cumulative: %v", bucketVals)
		}
	}
	if len(bucketVals) == 0 || bucketVals[len(bucketVals)-1] != count {
		t.Errorf("+Inf bucket %v != count %g", bucketVals, count)
	}
}

func TestPromHTTPContentType(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Run: countingRunner(new(int64))})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentType {
		t.Errorf("Content-Type = %q, want %q", got, telemetry.ContentType)
	}
}

// traceDoc mirrors the Chrome trace-event JSON schema for decoding.
type traceDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   *float64          `json:"ts"`
		Dur  *float64          `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// TestTraceEndpoint runs a job and fetches its trace, checking the
// document is schema-valid and contains the engine's spans.
func TestTraceEndpoint(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8, Run: countingRunner(new(int64))})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	rep, err := e.Do(context.Background(), Request{Experiment: "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := e.JobStatus(rep.RunID)
	if !ok || st.TraceID == "" {
		t.Fatalf("job %s has no trace id (default TraceEvery=1 should trace it)", rep.RunID)
	}

	resp, err := http.Get(srv.URL + "/v1/runs/" + rep.RunID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d, want 200", resp.StatusCode)
	}
	var doc traceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace body is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if doc.OtherData["trace_id"] != st.TraceID {
		t.Errorf("trace_id = %q, want %q", doc.OtherData["trace_id"], st.TraceID)
	}
	if doc.OtherData["run_id"] != rep.RunID {
		t.Errorf("run_id = %q, want %q", doc.OtherData["run_id"], rep.RunID)
	}
	names := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %d phase %q, want X (complete)", i, ev.Ph)
		}
		if ev.Name == "" || ev.TS == nil || ev.Dur == nil {
			t.Errorf("event %d missing required fields: %+v", i, ev)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"queue-wait", "attempt-1"} {
		if !names[want] {
			t.Errorf("trace lacks %q span; have %v", want, names)
		}
	}
}

func TestTraceEndpoint404s(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, TraceEvery: -1, Run: countingRunner(new(int64))})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body.Error
	}

	code, msg := get("/v1/runs/run-999999/trace")
	if code != http.StatusNotFound || !strings.Contains(msg, "unknown run id") {
		t.Errorf("unknown id: %d %q, want 404 unknown run id", code, msg)
	}

	rep, err := e.Do(context.Background(), Request{Experiment: "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := e.JobStatus(rep.RunID); st.TraceID != "" {
		t.Fatalf("TraceEvery=-1 still traced job %s", rep.RunID)
	}
	code, msg = get("/v1/runs/" + rep.RunID + "/trace")
	if code != http.StatusNotFound || !strings.Contains(msg, "not traced") {
		t.Errorf("untraced run: %d %q, want 404 explaining sampling", code, msg)
	}
}

func TestTraceSampling(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 0, TraceEvery: 2,
		Run: countingRunner(new(int64))})
	var traced, untraced int
	for i := 0; i < 4; i++ {
		rep, err := e.Do(context.Background(), Request{Experiment: "fig12", Frames: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := e.JobStatus(rep.RunID); st.TraceID != "" {
			traced++
		} else {
			untraced++
		}
	}
	if traced != 2 || untraced != 2 {
		t.Errorf("TraceEvery=2 over 4 jobs traced %d / skipped %d, want 2/2", traced, untraced)
	}
}

// TestTracePersistedToDisk checks a durable engine writes the trace
// document beside the journal and that the bytes on disk are the same
// schema-valid JSON the endpoint serves.
func TestTracePersistedToDisk(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Config{Workers: 1, DataDir: dir, Fsync: false,
		Run: countingRunner(new(int64))})
	rep, err := e.Do(context.Background(), Request{Experiment: "fig12"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "traces", rep.RunID+".json"))
	if err != nil {
		t.Fatalf("trace file not persisted: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("persisted trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("persisted trace has no events")
	}
}

func TestDebugzFlightRecorder(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 0, Run: countingRunner(new(int64))})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	if _, err := e.Do(context.Background(), Request{Experiment: "fig12"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/debugz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		TotalEvents int64             `json:"total_events"`
		Events      []telemetry.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.TotalEvents < 3 {
		t.Errorf("total_events = %d, want >= 3 (submit, start, done)", body.TotalEvents)
	}
	types := map[string]bool{}
	for _, ev := range body.Events {
		types[ev.Type] = true
	}
	for _, want := range []string{"submit", "start", "done"} {
		if !types[want] {
			t.Errorf("flight recorder lacks %q event; have %v", want, types)
		}
	}
	// Lifecycle events of a traced job carry its trace id for correlation.
	for _, ev := range body.Events {
		if ev.Type == "done" && ev.TraceID == "" {
			t.Error("done event lacks trace_id")
		}
	}
}

func TestVersionz(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, Run: countingRunner(new(int64))})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/versionz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b telemetry.Build
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.GoVersion == "" {
		t.Error("versionz reports empty go_version")
	}
	if b.Module != "gspc" {
		t.Errorf("versionz module = %q, want gspc", b.Module)
	}
}

// TestObservabilityHammer scrapes every observability surface while
// jobs complete, fail, and panic concurrently. Run under -race this is
// the data-race proof for the whole telemetry path.
func TestObservabilityHammer(t *testing.T) {
	var n atomic.Int64
	e := newTestEngine(t, Config{
		Workers: 4, CacheEntries: 4, KeepFinished: 16,
		MaxRetries: -1, BreakerThreshold: 100, FlightEvents: 32,
		Run: func(_ context.Context, r Request) (*harness.Result, error) {
			switch n.Add(1) % 3 {
			case 0:
				return nil, errors.New("transient explosion")
			case 1:
				panic("chaos")
			}
			return &harness.Result{Experiment: r.Experiment, Title: "stub"}, nil
		}})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ids sync.Map // recent run ids for the trace scraper

	// Submitters: distinct requests so nothing coalesces away.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := e.Do(context.Background(),
					Request{Experiment: "fig12", Frames: g*1000 + i + 1})
				if err == nil {
					ids.Store(rep.RunID, true)
				}
			}
		}(g)
	}
	// Scrapers: every observability surface, as fast as possible.
	scrape := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	get := func(path string) {
		resp, err := http.Get(srv.URL + path)
		if err == nil {
			resp.Body.Close()
		}
	}
	scrape(func() { e.PromExposition() })
	scrape(func() { e.Metrics() })
	scrape(func() { e.FlightEvents() })
	scrape(func() { get("/metrics") })
	scrape(func() { get("/debugz") })
	scrape(func() {
		ids.Range(func(k, _ any) bool {
			if b, ok := e.TraceJSON(k.(string)); ok {
				var doc traceDoc
				if err := json.Unmarshal(b, &doc); err != nil {
					t.Errorf("trace %s invalid mid-flight: %v", k, err)
				}
			}
			get("/v1/runs/" + k.(string) + "/trace")
			return true
		})
	})

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	m := e.Metrics()
	if m.Completed == 0 || m.Failed == 0 || m.Panics == 0 {
		t.Errorf("hammer did not exercise all outcomes: %d completed / %d failed / %d panics",
			m.Completed, m.Failed, m.Panics)
	}
}

// TestLatencyRecorderThroughEngine drives jobs through an engine whose
// latency recorder has a p99 target: the SLO section, the duration
// histogram and the completion counter must all count the same jobs,
// and an engine without a target must expose no SLO surface at all.
func TestLatencyRecorderThroughEngine(t *testing.T) {
	const jobs = 6
	lat := telemetry.NewLatency(telemetry.SLOTarget{P99: time.Second}, 0.99)
	e := newTestEngine(t, Config{Workers: 2, Run: countingRunner(new(int64)), Latency: lat})
	for i := 0; i < jobs; i++ {
		exp := "fig12"
		if i%2 == 1 {
			exp = "fig15"
		}
		if _, err := e.Do(context.Background(), Request{Experiment: exp, Frames: i + 1}); err != nil {
			t.Fatal(err)
		}
	}

	m := e.Metrics()
	var observed int64
	for _, r := range m.SLO {
		observed += r.Observations
	}
	var histCount int64 = -1
	body := string(e.PromExposition())
	for _, ln := range strings.Split(body, "\n") {
		fmt.Sscanf(ln, "gspc_job_duration_seconds_count %d", &histCount)
	}
	if m.Completed != jobs || observed != jobs || histCount != jobs {
		t.Errorf("completed %d, SLO observations %d, histogram count %d: want all %d",
			m.Completed, observed, histCount, jobs)
	}
	if len(m.SLO) != 2 {
		t.Errorf("SLO section has %d experiments, want 2: %+v", len(m.SLO), m.SLO)
	}
	if !strings.Contains(body, "gspc_slo_observations_total{") {
		t.Errorf("gspc_slo_observations_total missing:\n%s", body)
	}

	plain := newTestEngine(t, Config{Workers: 1, Run: countingRunner(new(int64))})
	if _, err := plain.Do(context.Background(), Request{Experiment: "fig12"}); err != nil {
		t.Fatal(err)
	}
	if js, _ := json.Marshal(plain.Metrics()); strings.Contains(string(js), `"slo"`) {
		t.Errorf("targetless /metricsz carries an slo section: %s", js)
	}
	if pb := string(plain.PromExposition()); strings.Contains(pb, "gspc_slo_") {
		t.Errorf("targetless engine exposed gspc_slo_ series:\n%s", pb)
	}
}

// TestLatencyWindowSlides checks /metricsz reports p50/p95 over only the
// newest LatencyWindow jobs: once the engine's recorder has been
// overwritten with a constant, the old durations no longer show.
func TestLatencyWindowSlides(t *testing.T) {
	lat := telemetry.NewLatency(telemetry.SLOTarget{}, 0)
	e := newTestEngine(t, Config{Workers: 1, Run: countingRunner(new(int64)), Latency: lat})
	for i := 0; i < telemetry.LatencyWindow; i++ {
		lat.Observe("fig12", time.Second) // 1000ms, will be fully overwritten
	}
	if m := e.Metrics(); m.LatencyP50Ms != 1000 || m.LatencyP95Ms != 1000 {
		t.Errorf("percentiles before overwrite = %g/%g, want 1000/1000", m.LatencyP50Ms, m.LatencyP95Ms)
	}
	for i := 0; i < telemetry.LatencyWindow; i++ {
		lat.Observe("fig12", time.Millisecond)
	}
	if m := e.Metrics(); m.LatencyP50Ms != 1 || m.LatencyP95Ms != 1 {
		t.Errorf("percentiles after overwrite = %g/%g, want 1/1", m.LatencyP50Ms, m.LatencyP95Ms)
	}
}
