package harness

import (
	"context"
	"fmt"

	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/dram"
	"gspc/internal/gpu"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/telemetry"
	"gspc/internal/workload"
)

// perfSpecs are the policies of the performance figures, the DRRIP
// baseline first. Per Section 5.2, from Figure 15 onward every policy
// runs with uncached displayable color.
func perfSpecs() []policySpec {
	return []policySpec{
		{name: "DRRIP", ucd: true, make: func(*stream.Trace) cachesim.Policy { return policy.NewDRRIP(2) }},
		{name: "NRU", ucd: true, make: func(*stream.Trace) cachesim.Policy { return policy.NewNRU() }},
		{name: "GS-DRRIP", ucd: true, make: func(*stream.Trace) cachesim.Policy { return policy.NewGSDRRIP(2) }},
		specGSPC(core.VariantGSPC, 8, true),
	}
}

// perf is the plan of the performance figures: every frame runs on the
// timing model under each policy, and the table reports per-app fps
// normalized to DRRIP (+UCD), with absolute mean fps noted.
func perf(o Options, title, note string, cfg gpu.Config) plan {
	cfg.UncachedDisplay = true
	specs := perfSpecs()
	frames := float64(len(o.Jobs()))
	p := plan{title: title, note: note, specs: specs}
	for _, s := range specs[1:] {
		p.columns = append(p.columns, s.name)
	}
	// The timing simulator runs one whole trace per call and does not
	// poll the context internally, so the fan-out's per-job context check
	// bounds cancellation latency to one simulation.
	p.run = func(ctx context.Context, j workload.FrameJob, tr *stream.Trace, sp *samplePlan, spec policySpec) (frameResult, error) {
		defer trackStage(ctx, pickTiming)()
		defer telemetry.StartFrom(ctx, spec.name, "timing", telemetry.String("job", j.ID())).End()
		// Sampled fidelity applies interval sampling only: the timing model
		// simulates the warmup plus measured window of the trace (set
		// sampling would distort queueing and DRAM row behavior) and the
		// cycle count is extrapolated by the estimated full-trace record
		// ratio. The factor cancels in the normalized columns; it only
		// shapes the absolute-fps note. No timing spec is Belady, so the
		// window's positions restarting at 0 cannot matter.
		src, cycleScale := tr, 1.0
		if sp != nil {
			w := tr.Sub(sp.warmStart, tr.Len())
			if n := w.Len(); n > 0 && sp.fullEst > 0 {
				src, cycleScale = w, sp.fullEst/float64(n)
			}
		}
		return frameResult{cycles: scale64(gpu.SimulateSource(src, cfg, spec.make(src)).Cycles, cycleScale)}, nil
	}
	p.frame = func(rs []frameResult, _ *stream.Trace, _ *samplePlan) []int64 {
		cyc := make([]int64, len(rs))
		for i, r := range rs {
			cyc[i] = r.cycles
		}
		return cyc
	}
	p.row = func(cyc []int64) []float64 {
		vals := make([]float64, len(specs)-1)
		for i := range vals {
			// Performance ratio = cycle ratio inverted.
			vals[i] = float64(cyc[0]) / float64(cyc[i+1])
		}
		return vals
	}
	p.suite = func(t *Table, cyc []int64) {
		fpsD := cfg.ClockGHz * 1e9 * frames / float64(cyc[0])
		fpsG := cfg.ClockGHz * 1e9 * frames / float64(cyc[len(specs)-1])
		t.Notes = append(t.Notes, fmt.Sprintf(
			"model frame rates at this scale: DRRIP %.1f fps, GSPC %.1f fps (absolute values are model-specific)", fpsD, fpsG))
	}
	return p
}

// fig15 reproduces Figure 15: performance normalized to DRRIP on the
// baseline GPU with an 8 MB 16-way LLC.
func fig15(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	return perf(o, fmt.Sprintf("Figure 15: performance vs DRRIP (LLC %s)", geom),
		"paper means: NRU 0.93, GS-DRRIP 1.008, GSPC 1.08", gpu.DefaultConfig(geom))
}

// fig16 reproduces Figure 16: the same on a 16 MB 16-way LLC.
func fig16(o Options) plan {
	geom := o.Geometry(2 * paperLLCBytes)
	return perf(o, fmt.Sprintf("Figure 16: performance vs DRRIP (LLC %s)", geom),
		"paper means: NRU 0.97, GS-DRRIP 1.04, GSPC 1.118", gpu.DefaultConfig(geom))
}

// RunFig17 reproduces Figure 17: sensitivity to a faster DRAM system
// (upper panel) and to a less aggressive GPU (lower panel), both with the
// 8 MB LLC. The two panels are emitted as consecutive row groups.
func RunFig17(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)

	fast := gpu.DefaultConfig(geom)
	fast.DRAM.Timing = dram.DDR3_1867()
	t1, err := perf(o, "", "", fast).execute(o)
	if err != nil {
		return nil, err
	}

	small := gpu.DefaultConfig(geom)
	small.Cores = 64
	small.Samplers = 8
	t2, err := perf(o, "", "", small).execute(o)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   fmt.Sprintf("Figure 17: performance vs DRRIP under changed environments (LLC %s)", geom),
		Columns: t1.Columns,
	}
	for _, r := range t1.Rows {
		t.AddRow("ddr3-1867/"+r.Label, r.Values...)
	}
	for _, r := range t2.Rows {
		t.AddRow("smallgpu/"+r.Label, r.Values...)
	}
	t.Notes = append(t.Notes,
		"paper means: DDR3-1867 — NRU 0.93, GSPC 1.071; 64-core/8-sampler GPU — NRU 0.947, GSPC 1.059")
	return t, nil
}
