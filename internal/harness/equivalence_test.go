package harness

import (
	"context"
	"testing"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

// TestPackedReplayEquivalence pins the replay seam every experiment rests
// on: for one synthesized frame, cachesim.ReplaySourceRange must produce
// exactly the stats and per-stream counts of the plain reference loop
// `for i { c.Access(tr.At(i)) }`, for every evaluated policy and for
// Belady. Each is checked on a full replay, on a sub-range (the
// interval-sampling shape), and on a set-sampled cache, where the replay
// filters unsampled records itself before Cache.Access sees them. If the
// column loop dropped or reordered a record, mispacked a kind/write bit,
// or handed Belady a wrong Seq, a policy would diverge here first.
func TestPackedReplayEquivalence(t *testing.T) {
	o := Options{Scale: 0.1}.normalized()
	tr := trace.GeneratePacked(workload.Suite()[0], o.Scale)
	geom := o.Geometry(paperLLCBytes)
	n := tr.Len()
	cases := []struct {
		name   string
		lo, hi int
		sample cachesim.SetSample
	}{
		{"full", 0, n, cachesim.SetSample{}},
		{"range", n / 4, 3 * n / 4, cachesim.SetSample{}},
		{"sampled", 0, n, cachesim.SetSample{Ratio: 8, Seed: 1}},
	}
	check := func(t *testing.T, spec policySpec) {
		for _, cs := range cases {
			t.Run(cs.name, func(t *testing.T) {
				run := func(replay func(c *cachesim.Cache) error) frameResult {
					c := cachesim.NewSampled(geom, spec.make(tr), cs.sample)
					if spec.ucd {
						c.SetBypass(stream.Display, true)
					}
					tk := attachTracker(c)
					if err := replay(c); err != nil {
						t.Fatal(err)
					}
					return frameResult{stats: c.Stats, tracker: tk}
				}
				want := run(func(c *cachesim.Cache) error {
					for i := cs.lo; i < cs.hi; i++ {
						c.Access(tr.At(i))
					}
					return nil
				})
				got := run(func(c *cachesim.Cache) error {
					return cachesim.ReplaySourceRange(context.Background(), c, tr, cs.lo, cs.hi, 0)
				})
				if cs.sample.Ratio > 1 && want.stats.SampledSkips == 0 {
					t.Fatal("set sampling skipped no record")
				}
				if got.stats != want.stats {
					t.Errorf("stats diverge: replay %+v, reference %+v", got.stats, want.stats)
				}
				for _, k := range stream.Kinds() {
					if got.tracker.KindHits(k) != want.tracker.KindHits(k) ||
						got.tracker.KindAccesses(k) != want.tracker.KindAccesses(k) {
						t.Errorf("%s: replay %d/%d hits/accesses, reference %d/%d", k,
							got.tracker.KindHits(k), got.tracker.KindAccesses(k),
							want.tracker.KindHits(k), want.tracker.KindAccesses(k))
					}
				}
			})
		}
	}

	for _, spec := range append([]policySpec{specDRRIP(), specNRU()}, fig12Specs()...) {
		t.Run(spec.name, func(t *testing.T) { check(t, spec) })
	}
	// Belady keys its lookahead on Seq, which the replay must set to the
	// record's position in the whole trace, also inside a sub-range.
	t.Run("Belady", func(t *testing.T) { check(t, specBelady(geom)) })
}
