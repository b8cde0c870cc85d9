package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gspc/internal/harness"
	"gspc/internal/membudget"
)

// pressureLimit is a governor budget so far above any real heap that
// only explicit Reserve calls move the ladder in these tests.
const pressureLimit = int64(1) << 40

func newTestGovernor(t *testing.T) *membudget.Governor {
	t.Helper()
	g, err := membudget.New(membudget.Config{Limit: pressureLimit, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// press reserves the given fraction of the budget, stepping the ladder
// up immediately (default watermarks: 0.65 shrink, 0.75 sampled,
// 0.85 stale-only, 0.95 shed).
func press(g *membudget.Governor, frac float64) {
	g.Reserve(int64(frac * float64(pressureLimit)))
}

func TestMemoryShedRefusesWith429RetryAfter(t *testing.T) {
	var calls int64
	g := newTestGovernor(t)
	ts, e := newTestServer(t, Config{Workers: 1, CacheEntries: 8, Run: countingRunner(&calls), Governor: g})

	press(g, 0.96)
	resp, body := postRun(t, ts.URL, `{"experiment":"fig12","frames":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed-rung submit = %d %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-second hint", ra)
	}
	if !strings.Contains(string(body), "memory pressure") || !strings.Contains(string(body), "shed") {
		t.Errorf("shed body %s does not name memory pressure", body)
	}
	if got := atomic.LoadInt64(&calls); got != 0 {
		t.Errorf("shed request still ran %d simulations", got)
	}
	m := e.Metrics()
	if m.Memory == nil || m.Memory.Shed != 1 {
		t.Errorf("Memory.Shed = %+v, want 1", m.Memory)
	}
	if m.Memory != nil && m.Memory.Rung != "shed" {
		t.Errorf("metrics rung = %q, want shed", m.Memory.Rung)
	}
}

func TestMemoryStaleOnlyServesLastGoodOr503(t *testing.T) {
	var calls int64
	g := newTestGovernor(t)
	ts, e := newTestServer(t, Config{Workers: 1, CacheEntries: 8, Run: countingRunner(&calls), Governor: g})

	// Healthy: one exact run records fig12's last good result.
	if resp, body := postRun(t, ts.URL, `{"experiment":"fig12","frames":1}`); resp.StatusCode != 200 {
		t.Fatalf("healthy submit = %d %s", resp.StatusCode, body)
	}

	press(g, 0.90)
	// A new fig12 key is answered from the remembered result, marked stale.
	resp, _ := postRun(t, ts.URL, `{"experiment":"fig12","frames":2}`)
	if resp.StatusCode != 200 {
		t.Fatalf("stale-only submit = %d, want 200 from last good", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gspc-Cache"); got != "stale" {
		t.Errorf("disposition = %q, want stale", got)
	}
	// An experiment with no remembered result gets 503 + Retry-After.
	resp, body := postRun(t, ts.URL, `{"experiment":"fig15","frames":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-stale submit = %d %s, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-second hint", ra)
	}
	if !strings.Contains(string(body), "no stale result") {
		t.Errorf("503 body %s does not explain the stale-only rung", body)
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("stale-only rung ran %d simulations, want only the healthy one", got)
	}
	if m := e.Metrics(); m.Memory == nil || m.Memory.StaleServed != 1 {
		t.Errorf("Memory.StaleServed = %+v, want 1", m.Memory)
	}
}

func TestMemorySampledDowngradeMarksResponses(t *testing.T) {
	var calls int64
	g := newTestGovernor(t)
	ts, e := newTestServer(t, Config{Workers: 2, CacheEntries: 8, Run: countingRunner(&calls), Governor: g})

	press(g, 0.80)
	// Sync: the exact request is admitted as its sampled twin and says so.
	resp, _ := postRun(t, ts.URL, `{"experiment":"fig12","frames":1}`)
	if resp.StatusCode != 200 {
		t.Fatalf("downgraded submit = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gspc-Fidelity-Downgraded"); got != "memory" {
		t.Errorf("X-Gspc-Fidelity-Downgraded = %q, want memory", got)
	}
	// Async: the 202 ack carries the marker too.
	aresp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json",
		strings.NewReader(`{"experiment":"fig12","frames":2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, aresp.Body)
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusAccepted {
		t.Fatalf("async downgraded submit = %d, want 202", aresp.StatusCode)
	}
	if got := aresp.Header.Get("X-Gspc-Fidelity-Downgraded"); got != "memory" {
		t.Errorf("async X-Gspc-Fidelity-Downgraded = %q, want memory", got)
	}
	// Engine-level: the reply flag and counter agree, and the request
	// really ran at sampled fidelity (already-sampled requests are not
	// double-counted).
	rep, err := e.Do(context.Background(), Request{Experiment: "fig15", Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Downgraded {
		t.Error("engine reply not marked downgraded")
	}
	rep, err = e.Do(context.Background(), Request{Experiment: "fig15", Frames: 2, Fidelity: harness.FidelitySampled})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Downgraded {
		t.Error("already-sampled request marked downgraded")
	}
	if m := e.Metrics(); m.Memory == nil || m.Memory.Downgrades != 3 {
		t.Errorf("Memory.Downgrades = %+v, want 3", m.Memory)
	}
}

// TestMemoryLadderRecoveryRestoresService: after the pressure is
// released and the hold-downs elapse, the same engine serves exact
// requests again with no downgrade marking.
func TestMemoryLadderRecoveryRestoresService(t *testing.T) {
	var calls int64
	g, err := membudget.New(membudget.Config{Limit: pressureLimit,
		HoldDown: 10 * time.Millisecond, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts, _ := newTestServer(t, Config{Workers: 1, CacheEntries: 8, Run: countingRunner(&calls), Governor: g})

	frac := 0.96
	reserve := int64(frac * float64(pressureLimit))
	g.Reserve(reserve)
	if resp, _ := postRun(t, ts.URL, `{"experiment":"fig12","frames":1}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit = %d, want 429", resp.StatusCode)
	}
	g.Release(reserve)
	deadline := time.Now().Add(5 * time.Second)
	for g.Evaluate() != membudget.RungHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("ladder stuck at %s after release", g.Rung())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body := postRun(t, ts.URL, `{"experiment":"fig12","frames":1}`)
	if resp.StatusCode != 200 {
		t.Fatalf("post-recovery submit = %d %s, want 200", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Gspc-Fidelity-Downgraded"); got != "" {
		t.Errorf("post-recovery response still marked downgraded %q", got)
	}
}

// TestAdmissionSampledDiscountMessage pins the MaxWork rejection for
// sampled requests: the reported frame-equivalent figure must be the
// discounted one admission actually compared, and the message must say
// so, or the "lower scale, frames, or apps" hint overstates by 8×.
func TestAdmissionSampledDiscountMessage(t *testing.T) {
	var calls int64
	e := newTestEngine(t, Config{Workers: 1, MaxWork: 0.5, Run: countingRunner(&calls)})

	req := Request{Experiment: "fig12", Frames: 4, Apps: []string{"Dirt", "HAWX"},
		Scale: 1, Fidelity: harness.FidelitySampled}
	nreq, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	exactWork := float64(len(nreq.Options().Jobs())) * nreq.Scale * nreq.Scale
	if exactWork/8 <= 0.5 {
		t.Fatalf("test request too small: discounted work %.2f under ceiling", exactWork/8)
	}

	_, err = e.Do(context.Background(), req)
	var bad *BadRequestError
	if !errors.As(err, &bad) {
		t.Fatalf("over-ceiling sampled submit err = %v, want BadRequestError", err)
	}
	wantFigure := fmt.Sprintf("%.2f frame-equivalents", exactWork/8)
	if !strings.Contains(bad.Reason, wantFigure) {
		t.Errorf("rejection %q does not report the discounted figure %q", bad.Reason, wantFigure)
	}
	if !strings.Contains(bad.Reason, "÷ 8 sampled-fidelity discount") {
		t.Errorf("rejection %q does not name the discount formula", bad.Reason)
	}

	// The exact twin reports the undiscounted figure with the plain formula.
	req.Fidelity = harness.FidelityExact
	_, err = e.Do(context.Background(), req)
	if !errors.As(err, &bad) {
		t.Fatalf("over-ceiling exact submit err = %v, want BadRequestError", err)
	}
	if want := fmt.Sprintf("%.2f frame-equivalents", exactWork); !strings.Contains(bad.Reason, want) {
		t.Errorf("exact rejection %q does not report %q", bad.Reason, want)
	}
	if strings.Contains(bad.Reason, "discount") {
		t.Errorf("exact rejection %q mentions the sampled discount", bad.Reason)
	}
}

func TestAdmissionMaxRequestBytes(t *testing.T) {
	var calls int64
	e := newTestEngine(t, Config{Workers: 1, MaxRequestBytes: 1, Run: countingRunner(&calls)})

	_, err := e.Do(context.Background(), Request{Experiment: "fig12", Frames: 1})
	var bad *BadRequestError
	if !errors.As(err, &bad) {
		t.Fatalf("over-byte-ceiling submit err = %v, want BadRequestError", err)
	}
	if !strings.Contains(bad.Reason, "in-flight trace memory") {
		t.Errorf("rejection %q does not name the byte ceiling", bad.Reason)
	}
	if got := atomic.LoadInt64(&calls); got != 0 {
		t.Errorf("rejected request still ran %d simulations", got)
	}
}

// TestQueueFull429CarriesRetryAfter pins backpressure parity: the 429 a
// full queue produces must carry Retry-After exactly like the breaker's
// 503 (pinned in TestServerBreakerMapsTo503RetryAfter) and the memory
// ladder's 429.
func TestQueueFull429CarriesRetryAfter(t *testing.T) {
	var calls int64
	started := make(chan string, 1)
	release := make(chan struct{})
	ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: 0,
		Run: gatedRunner(started, release, &calls)})
	defer close(release)

	async := func(frames int) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json",
			strings.NewReader(fmt.Sprintf(`{"experiment":"fig12","frames":%d}`, frames)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := async(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	<-started // the worker holds job 1; the queue is empty again
	if resp := async(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", resp.StatusCode)
	}
	resp := async(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("queue-full Retry-After = %q, want a positive whole-second hint", ra)
	}
}
