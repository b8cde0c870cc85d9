package harness

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/tracecache"
)

func TestEstimateFull(t *testing.T) {
	cases := []struct {
		name          string
		n1, n2        int
		s1, s2, scale float64
		want, tol     float64
	}{
		// Exact fit: n(s) = 1000 + 4e6·s² through the profile scales.
		{"pure model", 1000 + 15625, 1000 + 62500, 0.0625, 0.125, 1, 1000 + 4e6, 1e-6},
		{"pure model half scale", 1000 + 15625, 1000 + 62500, 0.0625, 0.125, 0.5, 1000 + 1e6, 1e-6},
		// Degenerate points fall back to the area ratio from n2.
		{"flat profiles", 5000, 5000, 0.0625, 0.125, 1, 5000 * 64, 1e-6},
		{"swapped scales", 100, 200, 0.125, 0.0625, 1, 200 * 256, 1e-6},
		// The estimate never undershoots the larger profile.
		{"clamped to n2", 100, 101, 0.0625, 0.125, 0.1, 101, 1e-6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := estimateFull(c.n1, c.n2, c.s1, c.s2, c.scale)
			if math.Abs(got-c.want) > c.tol {
				t.Errorf("estimateFull(%d,%d,%g,%g,%g) = %v, want %v",
					c.n1, c.n2, c.s1, c.s2, c.scale, got, c.want)
			}
		})
	}
}

// TestPrefixMatchesFull pins the property prefix-truncated synthesis
// rests on: the first records of a capped render are byte-identical to
// the same records of the full render.
func TestPrefixMatchesFull(t *testing.T) {
	o := Options{Scale: 0.1, MaxFramesPerApp: 1, Apps: []string{"Dirt"}}.normalized()
	j := o.Jobs()[0]
	cfg := rendercache.DefaultConfig().Scaled(o.Scale)
	full := stream.NewTrace(0)
	trace.GeneratePackedInto(full, j, o.Scale, cfg)
	const limit = 1000
	pre := stream.NewTrace(limit)
	trace.GeneratePackedPrefix(pre, j, o.Scale, cfg, limit)
	if pre.Len() != limit {
		t.Fatalf("prefix length %d, want %d", pre.Len(), limit)
	}
	for i := 0; i < limit; i++ {
		if pre.At(i) != full.At(i) {
			t.Fatalf("record %d differs: prefix %v, full %v", i, pre.At(i), full.At(i))
		}
	}
}

// TestSampledDeterminism: identical sampled options produce
// byte-identical results, regardless of worker fan-out or whether the
// trace cache is warm.
func TestSampledDeterminism(t *testing.T) {
	run := func(workers int, tc *tracecache.Cache) []byte {
		o := Options{Scale: 0.25, MaxFramesPerApp: 1, Apps: []string{"Dirt", "HAWX"},
			Fidelity: FidelitySampled, Workers: workers, TraceCache: tc}
		r, err := RunResult("fig12", o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	shared := tracecache.New(256 << 20)
	first := run(0, shared)
	if again := run(0, shared); string(again) != string(first) {
		t.Error("same options on a warm cache changed the sampled result")
	}
	if fan := run(4, tracecache.New(256<<20)); string(fan) != string(first) {
		t.Error("worker fan-out changed the sampled result")
	}
}

// TestSampledErrorBounds sweeps set-sampling ratios at a scale where
// interval sampling stays disengaged and pins the worst relative error
// of any fig12 mean column against the exact run. All inputs are
// deterministic, so the measured errors are stable; the bounds carry
// headroom over the measured values (0.10/0.10/0.12) to survive
// unrelated policy tuning.
func TestSampledErrorBounds(t *testing.T) {
	base := Options{Scale: 0.1, MaxFramesPerApp: 1, Apps: []string{"Dirt", "HAWX"},
		TraceCache: tracecache.New(256 << 20)}
	exact, err := RunResult("fig12", base)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Fidelity != FidelityExact || exact.Sampling != nil {
		t.Fatalf("exact run mislabeled: fidelity %q, sampling %+v", exact.Fidelity, exact.Sampling)
	}
	bounds := []struct {
		ratio int
		bound float64
	}{{8, 0.12}, {16, 0.12}, {32, 0.15}}
	for _, c := range bounds {
		o := base
		o.Fidelity = FidelitySampled
		o.SampleSetRatio = c.ratio
		r, err := RunResult("fig12", o)
		if err != nil {
			t.Fatal(err)
		}
		if r.Fidelity != FidelitySampled || r.Sampling == nil {
			t.Fatalf("ratio %d: sampled run mislabeled: fidelity %q, sampling %+v",
				c.ratio, r.Fidelity, r.Sampling)
		}
		if r.Sampling.SetRatio != c.ratio || r.Sampling.SetsSimulated <= 0 ||
			r.Sampling.SetsSimulated >= r.Sampling.SetsTotal {
			t.Errorf("ratio %d: implausible sampling report %+v", c.ratio, r.Sampling)
		}
		worst, worstCol := 0.0, ""
		for col, ev := range exact.Mean {
			if ev == 0 {
				continue
			}
			if re := math.Abs(r.Mean[col]-ev) / math.Abs(ev); re > worst {
				worst, worstCol = re, col
			}
		}
		t.Logf("ratio %d: worst relative error %.4f (%s), %d/%d sets",
			c.ratio, worst, worstCol, r.Sampling.SetsSimulated, r.Sampling.SetsTotal)
		if worst > c.bound {
			t.Errorf("ratio %d: worst relative error %.4f (%s) exceeds bound %.2f",
				c.ratio, worst, worstCol, c.bound)
		}
	}
}

// TestIntervalSamplingEngages checks the interval-sampling path at a
// scale above minIntervalScale: the replayed trace is a prefix, the
// counters are extrapolated, and the report records a window fraction.
func TestIntervalSamplingEngages(t *testing.T) {
	o := Options{Scale: 0.25, MaxFramesPerApp: 1, Apps: []string{"Dirt"},
		Fidelity: FidelitySampled, TraceCache: tracecache.New(256 << 20)}.normalized()
	j := o.Jobs()[0]
	tr, plan, err := acquireFrame(context.Background(), o, j)
	if err != nil {
		t.Fatal(err)
	}
	full, err := genTrace(context.Background(), o, j, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() >= full.Len() {
		t.Errorf("sampled trace has %d records, full %d: no truncation", tr.Len(), full.Len())
	}
	if plan.measStart <= 0 || plan.measStart >= tr.Len() {
		t.Errorf("measured window start %d outside (0,%d)", plan.measStart, tr.Len())
	}
	if plan.warmStart != 0 {
		t.Errorf("warmup starts at %d, want 0 (whole prefix warms)", plan.warmStart)
	}
	if plan.factor <= 1 {
		t.Errorf("extrapolation factor %v, want > 1", plan.factor)
	}
	// The estimate tracks the real full-trace length closely at the
	// profile-anchored scales.
	if ratio := plan.fullEst / float64(full.Len()); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("fullEst %v vs real %d: ratio %.3f outside [0.8, 1.25]",
			plan.fullEst, full.Len(), ratio)
	}

	// Below the engagement scale the full trace is replayed: set
	// sampling only.
	small := o
	small.Scale = 0.1
	small = small.normalized()
	js := small.Jobs()[0]
	trS, planS, err := acquireFrame(context.Background(), small, js)
	if err != nil {
		t.Fatal(err)
	}
	fullS, err := genTrace(context.Background(), small, js, 0)
	if err != nil {
		t.Fatal(err)
	}
	if trS.Len() != fullS.Len() || planS.measStart != 0 || planS.factor != 1 {
		t.Errorf("scale 0.1 should disable interval sampling: len %d vs %d, measStart %d, factor %v",
			trS.Len(), fullS.Len(), planS.measStart, planS.factor)
	}
	if !planS.sample.Enabled() {
		t.Error("set sampling should stay enabled at small scales")
	}
}

// TestExactUnaffectedBySamplingFields: an exact-fidelity run with stray
// sampling knobs set canonicalizes them away and carries no report.
func TestExactUnaffectedBySamplingFields(t *testing.T) {
	a, err := RunResult("fig12", Options{Scale: 0.1, MaxFramesPerApp: 1, Apps: []string{"Dirt"},
		TraceCache: tracecache.New(256 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunResult("fig12", Options{Scale: 0.1, MaxFramesPerApp: 1, Apps: []string{"Dirt"},
		SampleSetRatio: 32, SampleSeed: 9, TraceCache: tracecache.New(256 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("sampling knobs leaked into an exact-fidelity result")
	}
}
