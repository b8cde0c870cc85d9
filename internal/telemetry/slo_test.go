package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestSLOTrackerBreachAndBurn(t *testing.T) {
	tr := NewLatency(SLOTarget{P50: 50 * time.Millisecond, P99: 100 * time.Millisecond}, 0.99)

	// 98 fast observations, 2 breaches: budget = 100 × 0.01 = 1, so
	// burn = 2/1 = 2.0 — the SLO is being violated.
	for i := 0; i < 98; i++ {
		tr.Observe("fig12", 10*time.Millisecond)
	}
	tr.Observe("fig12", 150*time.Millisecond)
	tr.Observe("fig12", 200*time.Millisecond)

	reps := tr.Report()
	if len(reps) != 1 {
		t.Fatalf("Report returned %d series, want 1", len(reps))
	}
	r := reps[0]
	if r.Experiment != "fig12" || r.Observations != 100 || r.Breaches != 2 {
		t.Fatalf("report %+v, want fig12 with 100 obs / 2 breaches", r)
	}
	if math.Abs(r.BurnRate-2.0) > 1e-9 {
		t.Errorf("burn rate = %v, want 2.0", r.BurnRate)
	}
	if got := tr.WorstBurn(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("WorstBurn = %v, want 2.0", got)
	}
	if r.TargetP50Ms != 50 || r.TargetP99Ms != 100 {
		t.Errorf("targets = %v/%v ms, want 50/100", r.TargetP50Ms, r.TargetP99Ms)
	}
	if r.P50Ms != 10 {
		t.Errorf("measured p50 = %v ms, want 10", r.P50Ms)
	}
	if r.P99Ms < 100 {
		t.Errorf("measured p99 = %v ms should reflect the slow tail", r.P99Ms)
	}
	if h := tr.Histogram(); h.Count != 100 {
		t.Errorf("histogram count = %d, want 100", h.Count)
	}
}

func TestSLOTrackerBudgetFloorAndZeroTarget(t *testing.T) {
	// With few observations the budget floors at 1 breach, so a single
	// breach burns exactly the whole budget, not a huge multiple.
	tr := NewLatency(SLOTarget{P99: 10 * time.Millisecond}, 0.99)
	tr.Observe("fig12", 50*time.Millisecond)
	if got := tr.WorstBurn(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("single-breach burn = %v, want 1.0 (floored budget)", got)
	}
	if !tr.HasTarget() {
		t.Error("recorder with a p99 target reports no target")
	}

	// A zero target records latencies but never breaches.
	tr2 := NewLatency(SLOTarget{}, 0.99)
	tr2.Observe("fig15", time.Hour)
	if tr2.HasTarget() {
		t.Error("targetless recorder reports a target")
	}
	r := tr2.Report()[0]
	if r.Breaches != 0 || r.BurnRate != 0 {
		t.Errorf("targetless series breached: %+v", r)
	}
	if r.Observations != 1 || r.P99Ms == 0 {
		t.Errorf("targetless series not measured: %+v", r)
	}
}

// TestSLOTrackerSetTargetAndWindow checks the recorder's one target
// applies to every experiment, and that each per-experiment window
// rolls: LatencyWindow+1 observations age the early slow sample out of
// the measured p99 while the lifetime counters keep the breach.
func TestSLOTrackerSetTargetAndWindow(t *testing.T) {
	tr := NewLatency(SLOTarget{P99: time.Millisecond}, 0.9)

	// The same latency breaches under the shared target whichever
	// experiment reports it; a latency under the target does not.
	tr.Observe("strict", 10*time.Millisecond)
	tr.Observe("lax", 10*time.Millisecond)
	tr.Observe("fast", 100*time.Microsecond)

	reps := tr.Report()
	if len(reps) != 3 {
		t.Fatalf("Report returned %d series, want 3", len(reps))
	}
	byName := map[string]SLOReport{}
	for _, r := range reps {
		byName[r.Experiment] = r
	}
	if byName["strict"].Breaches != 1 || byName["lax"].Breaches != 1 {
		t.Errorf("shared target did not breach every experiment: %+v", reps)
	}
	if byName["fast"].Breaches != 0 {
		t.Errorf("latency under the target breached: %+v", byName["fast"])
	}

	for i := 0; i < LatencyWindow; i++ {
		tr.Observe("strict", 100*time.Microsecond)
	}
	var r SLOReport
	for _, rep := range tr.Report() {
		if rep.Experiment == "strict" {
			r = rep
		}
	}
	if r.P99Ms >= 10 {
		t.Errorf("rolled-out slow sample still in window p99: %v ms", r.P99Ms)
	}
	if r.Breaches != 1 || r.Observations != LatencyWindow+1 {
		t.Errorf("lifetime counters lost history: %+v", r)
	}
}

// TestLatencyWindowSlides checks the engine-wide window keeps only the
// newest LatencyWindow durations: after overwriting with a constant,
// the old values no longer influence the quantiles.
func TestLatencyWindowSlides(t *testing.T) {
	l := NewLatency(SLOTarget{}, 0)
	for i := 0; i < LatencyWindow; i++ {
		l.Observe("fig12", time.Second) // 1000ms, will be fully overwritten
	}
	for i := 0; i < LatencyWindow; i++ {
		l.Observe("fig12", time.Millisecond)
	}
	if q := l.Quantiles(0.50, 0.95); q[0] != 1 || q[1] != 1 {
		t.Errorf("percentiles after overwrite = %g/%g, want 1/1", q[0], q[1])
	}
}

func TestLatencyPercentiles(t *testing.T) {
	l := NewLatency(SLOTarget{}, 0)
	if q := l.Quantiles(0.50, 0.95); q[0] != 0 || q[1] != 0 {
		t.Errorf("empty window percentiles = %g/%g, want 0/0", q[0], q[1])
	}
	// The engine-wide window spans experiments.
	for i := 1; i <= 100; i++ {
		exp := "fig12"
		if i%2 == 0 {
			exp = "fig15"
		}
		l.Observe(exp, time.Duration(i)*time.Millisecond)
	}
	q := l.Quantiles(0.50, 0.95, 0.99)
	if !approxEqual(q[0], 50.5) || !approxEqual(q[1], 95.05) || !approxEqual(q[2], 99.01) {
		t.Errorf("percentiles over 1..100ms = %v, want 50.5/95.05/99.01", q)
	}
}

// TestQuantileInterpolates pins the linear-interpolation quantiles on a
// known distribution. A truncating rank (int(q·(n-1))) returns 95 for
// p95 of 1..100; the interpolated value is 95.05.
func TestQuantileInterpolates(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	cases := []struct {
		q, want float64
	}{
		{0, 1},
		{0.50, 50.5},
		{0.95, 95.05},
		{0.99, 99.01},
		{1, 100},
	}
	for _, c := range cases {
		if got := quantile(s, c.q); !approxEqual(got, c.want) {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %g, want 0", got)
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("quantile(single, .95) = %g, want 7", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); !approxEqual(got, 1.5) {
		t.Errorf("quantile([1 2], .5) = %g, want 1.5", got)
	}
}

func TestSLOQuantileInterpolation(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Errorf("q50 of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(s, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := quantile(s, 1); got != 4 {
		t.Errorf("q100 = %v, want 4", got)
	}
	if got := quantile(nil, 0.99); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
