package telemetry

import (
	"math"
	"sort"
	"sync"
	"time"
)

// SLOTarget is the latency objective every experiment's window is held
// to: the p50 and p99 the service promises. A zero field means "no
// target at that quantile" — only P99 drives breach accounting; P50 is
// reported for comparison.
type SLOTarget struct {
	P50 time.Duration
	P99 time.Duration
}

// LatencyWindow bounds every rolling window measured quantiles are
// computed over: the last LatencyWindow completed jobs.
const LatencyWindow = 512

// jobLatencyBuckets are the histogram bounds for completed-job
// duration, in seconds: experiments span milliseconds (cache-warm tiny
// scales) to minutes (full suite), so the buckets run 25ms–300s.
var jobLatencyBuckets = []float64{
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Latency is the one completed-job latency recorder. Every observation
// feeds a duration histogram, an engine-wide rolling window, and a
// per-experiment rolling window with lifetime breach counters, so the
// exposition histogram, the p50/p95 gauges and the SLO burn rate share
// one sample stream and one quantile definition.
//
// Burn accounting: with objective o (e.g. 0.99, "99% of jobs under the
// p99 target"), the error budget over n observations is n×(1−o)
// breaches, and the burn rate is breaches / budget — 1.0 means the
// budget is exactly spent, above it the SLO is being violated.
type Latency struct {
	target    SLOTarget
	objective float64
	hist      *Histogram

	mu     sync.Mutex
	all    ring[float64] // milliseconds, every experiment
	series map[string]*latencySeries
}

// latencySeries is one experiment's rolling window (milliseconds) plus
// its lifetime breach counter (counters never roll: burn is
// cumulative; the window's total is the lifetime observation count).
type latencySeries struct {
	window   ring[float64]
	breaches int64
}

// NewLatency builds a recorder. A zero target records latencies without
// SLO accounting; objective defaults to 0.99 when out of (0, 1).
func NewLatency(target SLOTarget, objective float64) *Latency {
	if objective <= 0 || objective >= 1 {
		objective = 0.99
	}
	return &Latency{
		target:    target,
		objective: objective,
		hist:      NewHistogram(jobLatencyBuckets...),
		all:       newRing[float64](LatencyWindow),
		series:    map[string]*latencySeries{},
	}
}

// HasTarget reports whether an SLO target is set — whether the SLO
// report belongs in an exposition at all.
func (l *Latency) HasTarget() bool { return l.target.P50 > 0 || l.target.P99 > 0 }

// Observe records one completed job's latency. A breach is a latency
// above the p99 target (when one is set).
func (l *Latency) Observe(experiment string, d time.Duration) {
	l.hist.Observe(d.Seconds())
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.all.push(ms)
	s, ok := l.series[experiment]
	if !ok {
		s = &latencySeries{window: newRing[float64](LatencyWindow)}
		l.series[experiment] = s
	}
	s.window.push(ms)
	if l.target.P99 > 0 && d > l.target.P99 {
		s.breaches++
	}
}

// Quantiles returns the qs-quantiles, in milliseconds, over the last
// LatencyWindow observations of every experiment; zeros when empty.
func (l *Latency) Quantiles(qs ...float64) []float64 {
	l.mu.Lock()
	s := values(&l.all)
	l.mu.Unlock()
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(s, q)
	}
	return out
}

// Histogram snapshots the completed-job duration histogram (seconds).
func (l *Latency) Histogram() HistogramSnapshot { return l.hist.Snapshot() }

// SLOReport is one experiment's SLO accounting for /metricsz and the
// soak summary.
type SLOReport struct {
	Experiment  string  `json:"experiment"`
	TargetP50Ms float64 `json:"target_p50_ms,omitempty"`
	TargetP99Ms float64 `json:"target_p99_ms,omitempty"`
	// Measured quantiles over the rolling window.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Lifetime counters and the cumulative error-budget burn rate:
	// breaches / (observations × (1 − objective)).
	Observations int64   `json:"observations"`
	Breaches     int64   `json:"breaches"`
	BurnRate     float64 `json:"burn_rate"`
}

// Report returns the per-experiment accounting, sorted by experiment
// id. Windows are copied under the lock and sorted outside it.
func (l *Latency) Report() []SLOReport {
	l.mu.Lock()
	out := make([]SLOReport, 0, len(l.series))
	windows := make([][]float64, 0, len(l.series))
	for exp, s := range l.series {
		out = append(out, SLOReport{
			Experiment:   exp,
			TargetP50Ms:  float64(l.target.P50) / float64(time.Millisecond),
			TargetP99Ms:  float64(l.target.P99) / float64(time.Millisecond),
			Observations: s.window.total(),
			Breaches:     s.breaches,
			BurnRate:     l.burn(s),
		})
		windows = append(windows, values(&s.window))
	}
	l.mu.Unlock()
	for i, w := range windows {
		sort.Float64s(w)
		out[i].P50Ms, out[i].P99Ms = quantile(w, 0.50), quantile(w, 0.99)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Experiment < out[j].Experiment })
	return out
}

// WorstBurn returns the highest per-experiment burn rate, 0 when
// nothing has been observed — the single scalar a soak asserts on.
func (l *Latency) WorstBurn() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	worst := 0.0
	for _, s := range l.series {
		worst = math.Max(worst, l.burn(s))
	}
	return worst
}

// burn is a series' cumulative error-budget burn rate; the budget
// floors at one breach so a single early breach does not read as a
// huge multiple. Caller holds mu.
func (l *Latency) burn(s *latencySeries) float64 {
	if s.breaches == 0 {
		return 0
	}
	budget := float64(s.window.total()) * (1 - l.objective)
	return float64(s.breaches) / math.Max(budget, 1)
}

// values copies a window's retained samples, oldest first. Caller
// holds mu.
func values(r *ring[float64]) []float64 {
	s := make([]float64, r.len())
	for i := range s {
		s[i] = r.at(i)
	}
	return s
}

// quantile returns the q-th quantile of sorted s, interpolating
// linearly between the two nearest order statistics: rank r = q·(n−1)
// rarely lands on an integer, and truncating it would bias high
// quantiles low (with 512 samples, p95 would read the 486th order
// statistic instead of the 486.45-blend). Zero when s is empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	r := q * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	if lo == hi {
		return s[lo]
	}
	frac := r - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
