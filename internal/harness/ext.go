package harness

import (
	"context"
	"fmt"

	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/memmap"
	"gspc/internal/policy"
	"gspc/internal/rendercache"
	"gspc/internal/stream"
	"gspc/internal/trace"
	"gspc/internal/workload"
)

// Extension experiments beyond the paper's figures: inter-frame warm-
// cache behavior, sample-density and bank-count ablations of GSPC,
// front-cache scaling fidelity, and additional related-work policies.
// DESIGN.md lists these as the ablation benches for the design choices
// the reproduction makes.

// Extensions returns the extension experiments.
func Extensions() []Experiment {
	return []Experiment{
		{"ext-warm", "Extension: inter-frame reuse — second frame on a warm LLC", RunExtWarm},
		{"ext-policies", "Extension: related-work policies (DIP, peLIFO, CounterDBP) vs DRRIP", RunExtPolicies},
		{"ext-ucp", "Extension: explicit way partitioning (UCP) vs stream-aware GSPC", RunExtUCP},
		{"abl-samples", "Ablation: GSPC sample set density", RunAblSamples},
		{"abl-banks", "Ablation: GSPC counter bank count", RunAblBanks},
		{"abl-frontcache", "Ablation: render cache scaling rule (linear vs area)", RunAblFrontCache},
		{"abl-morton", "Ablation: surface tile layout (row-major vs Morton)", RunAblMorton},
	}
}

// allExperiments returns paper figures plus extensions.
func allExperiments() []Experiment { return append(All(), Extensions()...) }

// ByIDExt finds an experiment among figures and extensions.
func ByIDExt(id string) (Experiment, bool) {
	for _, e := range allExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExtWarm renders two consecutive frames of each application through
// the same LLC and compares the second frame's misses against a cold
// run: assets persist across frames, so warm caches capture inter-frame
// static texture reuse the paper's single-frame methodology excludes.
func RunExtWarm(o Options) (*Table, error) {
	o = o.normalized()
	geom := o.Geometry(paperLLCBytes)
	t := &Table{
		Title:   fmt.Sprintf("Extension: frame-1 misses, warm LLC relative to cold (LLC %s)", geom),
		Columns: []string{"DRRIP", "GSPC+UCD"},
	}
	specs := []policySpec{specDRRIP(), specGSPC(core.VariantGSPC, 8, true)}

	apps := o.Apps
	if len(apps) == 0 {
		for _, p := range workload.Profiles() {
			apps = append(apps, p.Abbrev)
		}
	}
	ratios := map[string][]float64{}
	var order []string
	ctx := o.ctx()
	for _, ab := range apps {
		p, ok := workload.ProfileByAbbrev(ab)
		if !ok || p.Frames < 2 {
			continue
		}
		// Both frames come from the shared trace cache, so a warm sweep
		// after any suite experiment re-synthesizes nothing.
		tr0, err := genTrace(ctx, o, workload.FrameJob{App: p, Index: 0}, 0)
		if err != nil {
			return nil, err
		}
		tr1, err := genTrace(ctx, o, workload.FrameJob{App: p, Index: 1}, 0)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(specs))
		for i, s := range specs {
			// Cold: frame 1 alone.
			cold := cachesim.New(geom, s.make())
			if s.ucd {
				cold.SetBypass(stream.Display, true)
			}
			if err := cachesim.ReplaySource(ctx, cold, tr1, 0); err != nil {
				return nil, err
			}
			// Warm: frame 0 then frame 1 on the same cache; count only
			// frame 1's misses.
			warm := cachesim.New(geom, s.make())
			if s.ucd {
				warm.SetBypass(stream.Display, true)
			}
			if err := cachesim.ReplaySource(ctx, warm, tr0, 0); err != nil {
				return nil, err
			}
			before := warm.Stats.Misses
			if err := cachesim.ReplaySource(ctx, warm, tr1, 0); err != nil {
				return nil, err
			}
			warmMisses := warm.Stats.Misses - before
			vals[i] = float64(warmMisses) / float64(cold.Stats.Misses)
		}
		ratios[ab] = vals
		order = append(order, ab)
		t.AddRow(ab, vals...)
		o.progressf("  %s warm/cold done\n", ab)
	}
	means := make([]float64, len(specs))
	for _, ab := range order {
		for i, v := range ratios[ab] {
			means[i] += v
		}
	}
	for i := range means {
		means[i] /= float64(len(order))
	}
	t.AddRow("MEAN", means...)
	t.Notes = append(t.Notes, "values below 1 quantify inter-frame reuse captured by a warm LLC")
	return t, nil
}

// RunExtPolicies evaluates the additional related-work policies the
// paper discusses but does not plot: DIP, a pseudo-LIFO variant, and a
// counter-based dead block predictor, normalized to DRRIP.
func RunExtPolicies(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	specs := []policySpec{
		{name: "DIP", make: func() cachesim.Policy { return policy.NewDIP() }},
		{name: "peLIFO", make: func() cachesim.Policy { return policy.NewPeLIFO() }},
		{name: "CounterDBP", make: func() cachesim.Policy { return policy.NewCounterDBP() }},
		{name: "Hawkeye", make: func() cachesim.Policy { return policy.NewHawkeye() }},
		specGSPC(core.VariantGSPC, 8, true),
	}
	return normalizedMissTable(o, geom,
		fmt.Sprintf("Extension: related-work policies vs DRRIP (LLC %s)", geom), specs,
		"DIP/peLIFO/CounterDBP are Section 1.1.1 baselines the paper cites but does not evaluate; Hawkeye (ISCA 2016) post-dates the paper")
}

// RunExtUCP evaluates utility-based way partitioning over the stream
// groups against GSPC. The paper argues (Section 1.1.2) that explicit
// partitioning cannot serve 3D rendering because the streams share data;
// UCP walls the render target and texture partitions off from each
// other, cutting the RT-to-texture consumption path that GSPC amplifies.
func RunExtUCP(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	specs := []policySpec{
		{name: "UCP", make: func() cachesim.Policy { return policy.NewUCP() }},
		{name: "UCP+UCD", ucd: true, make: func() cachesim.Policy { return policy.NewUCP() }},
		specGSPC(core.VariantGSPC, 8, true),
	}
	return normalizedMissTable(o, geom,
		fmt.Sprintf("Extension: way partitioning vs stream-aware caching (LLC %s)", geom), specs,
		"the paper argues partitioning cannot exploit inter-stream sharing (Section 1.1.2); on this synthetic suite UCP fares better than that argument suggests — its utility monitor effectively grants the sharing streams a common partition")
}

// RunAblSamples ablates the GSPC sample density: more samples learn
// faster but run SRRIP on a larger cache fraction.
func RunAblSamples(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	mk := func(every int) policySpec {
		return policySpec{
			name: fmt.Sprintf("1/%d", every),
			ucd:  true,
			make: func() cachesim.Policy {
				p := core.DefaultParams(core.VariantGSPC)
				p.SampleEvery = every
				return core.New(p)
			},
		}
	}
	specs := []policySpec{mk(16), mk(32), mk(64), mk(128)}
	return normalizedMissTable(o, geom,
		fmt.Sprintf("Ablation: GSPC sample set density vs DRRIP (LLC %s)", geom), specs,
		"the paper dedicates 16 of every 1024 sets (1/64)")
}

// RunAblBanks ablates the number of counter banks: fewer banks average
// over more of the cache, more banks adapt to spatial phase differences.
func RunAblBanks(o Options) (*Table, error) {
	geom := o.Geometry(paperLLCBytes)
	mk := func(banks int) policySpec {
		return policySpec{
			name: fmt.Sprintf("%d-bank", banks),
			ucd:  true,
			make: func() cachesim.Policy {
				p := core.DefaultParams(core.VariantGSPC)
				p.Banks = banks
				return core.New(p)
			},
		}
	}
	specs := []policySpec{mk(1), mk(2), mk(4), mk(8)}
	return normalizedMissTable(o, geom,
		fmt.Sprintf("Ablation: GSPC counter banks vs DRRIP (LLC %s)", geom), specs,
		"the paper's 8 MB LLC has four banks, each with its own counter block")
}

// RunAblFrontCache compares the render-cache scaling rules: linear (the
// repository default; line-buffer working sets) versus area
// (proportional to pixel count). The filtered LLC stream mix differs, so
// this quantifies the fidelity argument in DESIGN.md.
func RunAblFrontCache(o Options) (*Table, error) {
	o = o.normalized()
	geom := o.Geometry(paperLLCBytes)
	t := &Table{
		Title:   fmt.Sprintf("Ablation: render cache scaling rule (LLC %s)", geom),
		Columns: []string{"linLLCacc", "areaLLCacc", "linGSPC", "areaGSPC"},
	}
	var sums [4]float64
	order := appOrder(o.Jobs())
	perApp := map[string]*[4]float64{}
	counts := map[string]int{}
	ctx := o.ctx()
	// The two scaling rules are swept with two packed buffers reused
	// across every frame: these off-default configurations stay out of
	// the shared trace cache, and buffer reuse keeps the serial sweep
	// allocation-flat.
	lin, area := stream.NewTrace(0), stream.NewTrace(0)
	for _, j := range o.Jobs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trace.GeneratePackedInto(lin, j, o.Scale, rendercache.DefaultConfig().Scaled(o.Scale))
		trace.GeneratePackedInto(area, j, o.Scale, rendercache.DefaultConfig().Scaled(o.Scale*o.Scale))
		row := perApp[j.App.Abbrev]
		if row == nil {
			row = &[4]float64{}
			perApp[j.App.Abbrev] = row
		}
		linR, err := missRatio(ctx, lin, geom)
		if err != nil {
			return nil, err
		}
		areaR, err := missRatio(ctx, area, geom)
		if err != nil {
			return nil, err
		}
		row[0] += float64(lin.Len())
		row[1] += float64(area.Len())
		row[2] += linR
		row[3] += areaR
		counts[j.App.Abbrev]++
		o.progressf("  %s done\n", j.ID())
	}
	for _, ab := range order {
		row := perApp[ab]
		n := float64(counts[ab])
		vals := []float64{row[0] / n, row[1] / n, row[2] / n, row[3] / n}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRow(ab, vals...)
	}
	t.AddRow("MEAN", sums[0]/float64(len(order)), sums[1]/float64(len(order)),
		sums[2]/float64(len(order)), sums[3]/float64(len(order)))
	t.Notes = append(t.Notes,
		"linGSPC/areaGSPC: GSPC+UCD misses normalized to DRRIP on the respective trace")
	return t, nil
}

// missRatio replays tr under GSPC+UCD and DRRIP and returns their miss
// ratio. Its callers synthesize off-default traces directly, outside the
// interval-sampling machinery, so the replays are always exact.
func missRatio(ctx context.Context, tr *stream.Trace, geom cachesim.Geometry) (float64, error) {
	rd, err := runOffline(ctx, tr, specDRRIP(), geom, nil)
	if err != nil {
		return 0, err
	}
	rg, err := runOffline(ctx, tr, specGSPC(core.VariantGSPC, 8, true), geom, nil)
	if err != nil {
		return 0, err
	}
	if rd.stats.Misses == 0 {
		return 1, nil
	}
	return float64(rg.stats.Misses) / float64(rd.stats.Misses), nil
}

// normalizedMissTable runs specs over the suite and tabulates per-app
// miss counts normalized to DRRIP.
func normalizedMissTable(o Options, geom cachesim.Geometry, title string, specs []policySpec, note string) (*Table, error) {
	missD, miss, err := missSweep(o, geom, specs)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title}
	for _, s := range specs {
		t.Columns = append(t.Columns, s.name)
	}
	order := appOrder(o.Jobs())
	sums := make([]float64, len(specs))
	for _, ab := range order {
		vals := make([]float64, len(specs))
		for i := range specs {
			vals[i] = float64(miss[ab][i]) / float64(missD[ab])
			sums[i] += vals[i]
		}
		t.AddRow(ab, vals...)
	}
	means := make([]float64, len(specs))
	for i := range means {
		means[i] = sums[i] / float64(len(order))
	}
	t.AddRow("MEAN", means...)
	if note != "" {
		t.Notes = append(t.Notes, note)
	}
	return t, nil
}

// RunAblMorton compares the default row-major-tiled surfaces against
// Morton (Z-order) layouts for the GPU-internal surfaces: Morton packs
// screen-space neighborhoods into compact block ranges, changing how the
// render caches and DRAM rows see the same rendering.
func RunAblMorton(o Options) (*Table, error) {
	o = o.normalized()
	geom := o.Geometry(paperLLCBytes)
	t := &Table{
		Title:   fmt.Sprintf("Ablation: surface tile layout, row-major vs Morton (LLC %s)", geom),
		Columns: []string{"rowmajAcc", "mortonAcc", "rowmajGSPC", "mortonGSPC"},
	}
	var sums [4]float64
	order := appOrder(o.Jobs())
	perApp := map[string]*[4]float64{}
	counts := map[string]int{}
	ctx := o.ctx()
	// Layout is a synthesis parameter the trace-cache key does not carry,
	// so both layouts are rendered directly into packed buffers reused
	// across frames.
	rowTr, morTr := stream.NewTrace(0), stream.NewTrace(0)
	for _, j := range o.Jobs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg := rendercache.DefaultConfig().Scaled(o.Scale)
		trace.GenerateLayoutInto(rowTr, j, o.Scale, cfg, memmap.LayoutRowMajor)
		trace.GenerateLayoutInto(morTr, j, o.Scale, cfg, memmap.LayoutMorton)
		row := perApp[j.App.Abbrev]
		if row == nil {
			row = &[4]float64{}
			perApp[j.App.Abbrev] = row
		}
		rowR, err := missRatio(ctx, rowTr, geom)
		if err != nil {
			return nil, err
		}
		morR, err := missRatio(ctx, morTr, geom)
		if err != nil {
			return nil, err
		}
		row[0] += float64(rowTr.Len())
		row[1] += float64(morTr.Len())
		row[2] += rowR
		row[3] += morR
		counts[j.App.Abbrev]++
		o.progressf("  %s done\n", j.ID())
	}
	for _, ab := range order {
		row := perApp[ab]
		n := float64(counts[ab])
		vals := []float64{row[0] / n, row[1] / n, row[2] / n, row[3] / n}
		for i, v := range vals {
			sums[i] += v
		}
		t.AddRow(ab, vals...)
	}
	t.AddRow("MEAN", sums[0]/float64(len(order)), sums[1]/float64(len(order)),
		sums[2]/float64(len(order)), sums[3]/float64(len(order)))
	t.Notes = append(t.Notes, "GSPC columns: GSPC+UCD misses normalized to DRRIP on the same trace")
	return t, nil
}
