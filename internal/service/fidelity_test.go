package service

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gspc/internal/harness"
)

func TestRequestFidelityNormalize(t *testing.T) {
	r, err := (Request{Experiment: "fig12", Fidelity: "sampled"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Fidelity != harness.FidelitySampled || r.SampleRatio != harness.DefaultSampleSetRatio || r.SampleSeed != 1 {
		t.Errorf("sampled defaults not applied: %+v", r)
	}

	// Exact (and unset) fidelity canonicalizes the knobs away, so the
	// key cannot fracture on fields that cannot change the result.
	plain, err := (Request{Experiment: "fig12"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := (Request{Experiment: "fig12", Fidelity: "exact", SampleRatio: 8, SampleSeed: 3}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key() != noisy.Key() {
		t.Errorf("exact keys fractured on sampling knobs: %s vs %s", plain.Key(), noisy.Key())
	}
	if plain.Fidelity != harness.FidelityExact {
		t.Errorf("unset fidelity normalized to %q, want exact", plain.Fidelity)
	}

	// Sampled runs key on the full sampling configuration.
	s1, _ := (Request{Experiment: "fig12", Fidelity: "sampled"}).Normalize()
	s2, _ := (Request{Experiment: "fig12", Fidelity: "sampled", SampleRatio: 8}).Normalize()
	if s1.Key() == plain.Key() {
		t.Error("sampled and exact requests share a key")
	}
	if s1.Key() == s2.Key() {
		t.Error("different sample ratios share a key")
	}

	if _, err := (Request{Experiment: "fig12", Fidelity: "fast"}).Normalize(); err == nil {
		t.Error("unknown fidelity accepted")
	}
	if _, err := (Request{Experiment: "fig12", SampleRatio: -2}).Normalize(); err == nil {
		t.Error("negative sample ratio accepted")
	}
}

// markedRunner distinguishes exact from sampled runs in the result body
// and attaches a sampling report to sampled ones.
func markedRunner(calls *int64) func(context.Context, Request) (*harness.Result, error) {
	return func(_ context.Context, r Request) (*harness.Result, error) {
		atomic.AddInt64(calls, 1)
		res := &harness.Result{Experiment: r.Experiment, Title: "fidelity=" + r.Fidelity, Fidelity: r.Fidelity}
		if r.Fidelity == harness.FidelitySampled {
			res.Sampling = &harness.SamplingReport{SetRatio: r.SampleRatio, SetSeed: r.SampleSeed,
				SetsSimulated: 8, SetsTotal: 128, EstRelErr: 0.05, MaxRelErr: 0.09, Replays: 1}
		}
		return res, nil
	}
}

// TestNoEscalationWhenDisabled: a sampled answer is written once and
// stays as computed — no exact twin runs behind it and the entry under
// the sampled key is never swapped for other bytes.
func TestNoEscalationWhenDisabled(t *testing.T) {
	var calls int64
	e := newTestEngine(t, Config{Workers: 2, CacheEntries: 8, Run: markedRunner(&calls)})
	req := Request{Experiment: "fig12", Frames: 1, Fidelity: "sampled"}
	if _, err := e.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("runner invoked %d times, want 1 (no exact twin)", got)
	}
	norm, _ := req.Normalize()
	if v, ok := e.Cached(norm.Key()); !ok || !strings.Contains(string(v.Body), "fidelity=sampled") {
		t.Error("sampled entry missing or replaced")
	}
	m := e.Metrics()
	if m.Sampling == nil {
		t.Fatal("metrics missing sampling section after a sampled job")
	}
	if m.Sampling.SampledJobs != 1 || m.Sampling.LastEstRelErr != 0.05 {
		t.Errorf("sampling metrics = %+v, want 1 sampled job with the report's 0.05 est rel err", m.Sampling)
	}
}

// TestAdmitWorkSampledDiscount: a request over the work ceiling at
// exact fidelity is admitted sampled.
func TestAdmitWorkSampledDiscount(t *testing.T) {
	var calls int64
	e := newTestEngine(t, Config{Workers: 1, CacheEntries: 8, MaxWork: 1, Run: markedRunner(&calls)})
	heavy := Request{Experiment: "fig12", Scale: 1, Apps: []string{"Dirt"}, Frames: 2}
	if _, err := e.Do(context.Background(), heavy); err == nil {
		t.Fatal("exact request above the ceiling admitted")
	}
	heavy.Fidelity = "sampled"
	if _, err := e.Do(context.Background(), heavy); err != nil {
		t.Fatalf("sampled request rejected: %v", err)
	}
}
