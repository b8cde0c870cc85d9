package harness

import (
	"fmt"

	"gspc/internal/cachesim"
	"gspc/internal/core"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/workload"
)

// RunTable1 reproduces Table 1: the application suite.
func RunTable1(o Options) (*Table, error) {
	if _, err := o.jobs(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 1: DirectX applications (DirectX version, width, height, frames in suite)",
		Columns: []string{"DirectX", "Width", "Height", "Frames"},
	}
	for _, p := range workload.Profiles() {
		t.AddRow(p.Abbrev, float64(p.DirectX), float64(p.Width), float64(p.Height), float64(p.Frames))
	}
	t.Notes = append(t.Notes, "52 frames total, three resolutions, DirectX 10 and 11, as in the paper")
	return t, nil
}

// RunTable6 reproduces Table 6: the evaluated policy registry.
func RunTable6(o Options) (*Table, error) {
	if _, err := o.jobs(); err != nil {
		return nil, err
	}
	t := &Table{Title: "Table 6: evaluated policies (see internal/policy and internal/core)"}
	t.Columns = []string{"statebits"}
	for _, e := range []struct {
		name string
		bits float64
	}{
		{"DRRIP (dynamic re-reference interval prediction)", 2},
		{"NRU (single-bit not-recently-used)", 1},
		{"SHiP-mem (memory signature-based hit prediction)", 3},
		{"GS-DRRIP (graphics stream-aware DRRIP)", 2},
		{"GSPZTC (probabilistic Z and texture caching)", 4},
		{"GSPZTC+TSE (adds texture sampler epochs)", 4},
		{"GSPC (graphics stream-aware probabilistic caching)", 4},
		{"GSPC+UCD (GSPC, uncached displayable color)", 4},
		{"DRRIP+UCD (DRRIP, uncached displayable color)", 2},
	} {
		t.AddRow(e.name, e.bits)
	}
	return t, nil
}

// normalizedMisses is the plan of every miss-count figure: each spec's
// LLC misses over the DRRIP baseline's, per application.
func normalizedMisses(geom cachesim.Geometry, title, note string, specs ...policySpec) plan {
	p := plan{title: title, note: note, geom: geom, specs: append([]policySpec{specDRRIP()}, specs...), frame: misses}
	for _, s := range specs {
		p.columns = append(p.columns, s.name)
	}
	p.row = func(miss []int64) []float64 {
		vals := make([]float64, len(specs))
		for i := range vals {
			vals[i] = float64(miss[i+1]) / float64(miss[0])
		}
		return vals
	}
	return p
}

// misses extracts each spec's LLC miss count.
func misses(rs []frameResult, _ *stream.Trace, _ *samplePlan) []int64 {
	miss := make([]int64, len(rs))
	for i, r := range rs {
		miss[i] = r.stats.Misses
	}
	return miss
}

// fig1 reproduces Figure 1: NRU and Belady's optimal LLC miss counts
// normalized to two-bit DRRIP on the 8 MB LLC.
func fig1(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	return normalizedMisses(geom, fmt.Sprintf("Figure 1: LLC misses normalized to DRRIP (LLC %s)", geom),
		"paper: NRU 1.062, Belady 0.634 on average", specNRU(), specBelady(geom))
}

// fig4 reproduces Figure 4: the stream-wise distribution of LLC
// accesses. It replays nothing: the counters come from the trace.
func fig4(o Options) plan {
	p := plan{
		title: "Figure 4: stream-wise distribution of LLC accesses (percent)",
		note:  "paper averages: rt 40, texture 34, z >=10, hiz 7, vertex 4, rest ~5",
	}
	for _, k := range stream.Kinds() {
		p.columns = append(p.columns, k.String())
	}
	p.frame = func(_ []frameResult, tr *stream.Trace, sp *samplePlan) []int64 {
		// Sampled runs scan only the measured window — the distribution is
		// reported in percent, so the extrapolation factor cancels.
		lo := 0
		if sp != nil {
			lo = sp.measStart
		}
		mix := make([]int64, stream.NumKinds)
		for i, n := lo, tr.Len(); i < n; i++ {
			mix[tr.KindAt(i)]++
		}
		return mix
	}
	p.row = func(mix []int64) []float64 {
		var tot int64
		for _, v := range mix {
			tot += v
		}
		vals := make([]float64, len(mix))
		for k, v := range mix {
			vals[k] = 100 * float64(v) / float64(tot)
		}
		return vals
	}
	return p
}

// specsBDN is the reference trio the characterization figures share.
func specsBDN(geom cachesim.Geometry) []policySpec {
	return []policySpec{specBelady(geom), specDRRIP(), specNRU()}
}

// fig5 reproduces Figure 5: texture sampler, render target, and Z hit
// rates under Belady, DRRIP, and NRU.
func fig5(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	kinds := []stream.Kind{stream.Texture, stream.RT, stream.Z}
	return plan{
		title: fmt.Sprintf("Figure 5: per-stream hit rates, percent (LLC %s)", geom),
		columns: []string{
			"tex/Bel", "tex/DRRIP", "tex/NRU",
			"rt/Bel", "rt/DRRIP", "rt/NRU",
			"z/Bel", "z/DRRIP", "z/NRU",
		},
		note:  "paper averages: texture 53.4/22.0/18.4, rt 59.8/50.1/41.5, z 77.1/~58/~58 (Belady/DRRIP/NRU)",
		geom:  geom,
		specs: specsBDN(geom),
		// Counters: hits then accesses, each indexed [stream][policy].
		frame: func(rs []frameResult, _ *stream.Trace, _ *samplePlan) []int64 {
			c := make([]int64, 18)
			for pi, r := range rs {
				for si, k := range kinds {
					c[si*3+pi] = r.tracker.KindHits(k)
					c[9+si*3+pi] = r.tracker.KindAccesses(k)
				}
			}
			return c
		},
		row: func(c []int64) []float64 {
			vals := make([]float64, 9)
			for i := range vals {
				vals[i] = ratioPct(c[i], c[9+i])
			}
			return vals
		},
	}
}

// fig6 reproduces Figure 6: the split of texture sampler hits into
// inter- and intra-stream reuse (normalized to Belady's hits) and the
// fraction of render target blocks consumed by the samplers.
func fig6(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	return plan{
		title: fmt.Sprintf("Figure 6: texture reuse split (%% of Belady hits) and RT consumption %% (LLC %s)", geom),
		columns: []string{
			"inter/Bel", "intra/Bel", "inter/DRRIP", "intra/DRRIP", "inter/NRU", "intra/NRU",
			"cons/Bel", "cons/DRRIP", "cons/NRU",
		},
		note:  "paper: 55% of Belady's texture hits are inter-stream; RT consumption 51/16/13% (Belady/DRRIP/NRU)",
		geom:  geom,
		specs: specsBDN(geom),
		// Counters: inter hits, intra hits, RT produced, RT consumed, each
		// indexed by policy.
		frame: func(rs []frameResult, _ *stream.Trace, _ *samplePlan) []int64 {
			c := make([]int64, 12)
			for pi, r := range rs {
				c[pi] = r.tracker.InterTexHits
				c[3+pi] = r.tracker.IntraTexHits
				c[6+pi] = r.tracker.RTProduced
				c[9+pi] = r.tracker.RTConsumed
			}
			return c
		},
		row: func(c []int64) []float64 {
			inter, intra, prod, cons := c[0:3], c[3:6], c[6:9], c[9:12]
			optHits := float64(inter[0] + intra[0])
			if optHits == 0 {
				optHits = 1
			}
			var vals []float64
			for pi := range inter {
				vals = append(vals, 100*float64(inter[pi])/optHits, 100*float64(intra[pi])/optHits)
			}
			for pi := range cons {
				vals = append(vals, ratioPct(cons[pi], prod[pi]))
			}
			return vals
		},
	}
}

// fig7 reproduces Figure 7: the epoch-wise distribution of intra-stream
// texture hits and per-epoch death ratios under Belady.
func fig7(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	return plan{
		title: fmt.Sprintf("Figure 7: texture epochs under Belady (LLC %s)", geom),
		columns: []string{
			"hit%E0", "hit%E1", "hit%E2", "hit%E3+",
			"death E0", "death E1", "death E2",
		},
		note:  "paper: hits 79/15/4/2%, death ratios 0.81/0.73/0.53",
		geom:  geom,
		specs: []policySpec{specBelady(geom)},
		frame: func(rs []frameResult, _ *stream.Trace, _ *samplePlan) []int64 {
			tk := rs[0].tracker
			return append(append([]int64(nil), tk.TexEpochHits[:]...), tk.TexEntries[:]...)
		},
		row: func(c []int64) []float64 {
			hits, entries := c[:4], c[4:]
			var totHits int64
			for _, h := range hits {
				totHits += h
			}
			if totHits == 0 {
				totHits = 1
			}
			var vals []float64
			for _, h := range hits {
				vals = append(vals, 100*float64(h)/float64(totHits))
			}
			return append(vals, death(entries, 0), death(entries, 1), death(entries, 2))
		},
	}
}

func death(entries []int64, k int) float64 {
	if entries[k] == 0 {
		return 0
	}
	return float64(entries[k]-entries[k+1]) / float64(entries[k])
}

// fig8 reproduces Figure 8: the percentage of render target and texture
// fills inserted with RRPV=3 by two-bit DRRIP.
func fig8(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	return plan{
		title:   fmt.Sprintf("Figure 8: %% of fills with RRPV=3 under DRRIP (LLC %s)", geom),
		columns: []string{"RT", "texture"},
		note:    "paper averages: RT ~25%, texture ~36%",
		geom:    geom,
		specs:   []policySpec{specDRRIP()},
		frame: func(rs []frameResult, _ *stream.Trace, _ *samplePlan) []int64 {
			d := rs[0].drrip
			return []int64{
				d.distant[stream.RT] + d.distant[stream.Display], d.fills[stream.RT] + d.fills[stream.Display],
				d.distant[stream.Texture], d.fills[stream.Texture],
			}
		},
		row: func(c []int64) []float64 {
			return []float64{ratioPct(c[0], c[1]), ratioPct(c[2], c[3])}
		},
	}
}

// fig9 reproduces Figure 9: Z stream epoch death ratios under Belady.
func fig9(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	return plan{
		title:   fmt.Sprintf("Figure 9: Z epoch death ratios under Belady (LLC %s)", geom),
		columns: []string{"death E0", "death E1", "death E2"},
		note:    "paper: 0.61/0.38/0.26 — declining, unlike the texture stream",
		geom:    geom,
		specs:   []policySpec{specBelady(geom)},
		frame: func(rs []frameResult, _ *stream.Trace, _ *samplePlan) []int64 {
			return rs[0].tracker.ZEntries[:]
		},
		row: func(c []int64) []float64 {
			return []float64{death(c, 0), death(c, 1), death(c, 2)}
		},
	}
}

// fig11 reproduces Figure 11: GSPZTC's sensitivity to the threshold
// parameter t, reported as percent change in LLC misses relative to t=16.
func fig11(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	p := plan{
		title:   fmt.Sprintf("Figure 11: GSPZTC misses, %% change vs t=16 (LLC %s)", geom),
		columns: []string{"t=2", "t=4", "t=8"},
		note:    "paper: near-flat on average; t=8 the most robust",
		geom:    geom,
		frame:   misses,
		row: func(miss []int64) []float64 {
			base := float64(miss[3])
			vals := make([]float64, 3)
			for i := range vals {
				vals[i] = 100 * (float64(miss[i]) - base) / base
			}
			return vals
		},
	}
	for _, t := range []int{2, 4, 8, 16} {
		p.specs = append(p.specs, specGSPC(core.VariantGSPZTC, t, false))
	}
	return p
}

// fig12Specs returns the eight policies of Figure 12 in plot order.
func fig12Specs() []policySpec {
	return []policySpec{
		specNRU(),
		{name: "SHiP-mem", make: func(*stream.Trace) cachesim.Policy { return policy.NewSHiPMem(4) }},
		{name: "GS-DRRIP", make: func(*stream.Trace) cachesim.Policy { return policy.NewGSDRRIP(2) }},
		specGSPC(core.VariantGSPZTC, 8, false),
		specGSPC(core.VariantGSPZTCTSE, 8, false),
		specGSPC(core.VariantGSPC, 8, false),
		specGSPC(core.VariantGSPC, 8, true),
		{name: "DRRIP+UCD", ucd: true, make: func(*stream.Trace) cachesim.Policy { return policy.NewDRRIP(2) }},
	}
}

// fig12 reproduces Figure 12: LLC miss counts for all evaluated
// policies normalized to two-bit DRRIP.
func fig12(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	return normalizedMisses(geom, fmt.Sprintf("Figure 12: LLC misses normalized to DRRIP (LLC %s)", geom),
		"paper means: NRU 1.062, SHiP-mem ~1.0, GS-DRRIP 0.971, GSPZTC 0.952, GSPZTC+TSE 0.885, GSPC ~0.88, GSPC+UCD 0.869, DRRIP+UCD ~1.0",
		fig12Specs()...)
}

// fig13 reproduces Figure 13: suite-average texture hit rate, RT
// consumption rate, RT (blending) hit rate, and Z hit rate per policy.
// Its rows are policies, so the counters are summed over the whole
// suite instead of per application.
func fig13(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	specs := []policySpec{
		specDRRIP(),
		{name: "GS-DRRIP", make: func(*stream.Trace) cachesim.Policy { return policy.NewGSDRRIP(2) }},
		specGSPC(core.VariantGSPZTC, 8, false),
		specGSPC(core.VariantGSPZTCTSE, 8, false),
		specGSPC(core.VariantGSPC, 8, false),
		specGSPC(core.VariantGSPC, 8, true),
		specBelady(geom),
	}
	return plan{
		title:   fmt.Sprintf("Figure 13: suite-average stream metrics, percent (LLC %s)", geom),
		columns: []string{"tex hit", "rt->tex cons", "rt read hit", "z hit"},
		note:    "paper: metrics rise monotonically along GSPZTC -> GSPZTC+TSE; GSPC trades a little consumption for fewer misses; GS-DRRIP has the best z hit rate; GSPC rt hit 57.7 vs Belady 59.8",
		geom:    geom,
		specs:   specs,
		// Counters: four (numerator, denominator) pairs per policy.
		frame: func(rs []frameResult, _ *stream.Trace, _ *samplePlan) []int64 {
			var c []int64
			for _, r := range rs {
				tk := r.tracker
				c = append(c,
					tk.KindHits(stream.Texture), tk.KindAccesses(stream.Texture),
					tk.RTConsumed, tk.RTProduced,
					tk.ReadHits[stream.RT], tk.ReadAccesses[stream.RT],
					tk.KindHits(stream.Z), tk.KindAccesses(stream.Z))
			}
			return c
		},
		suite: func(t *Table, total []int64) {
			for i, s := range specs {
				a := total[8*i : 8*i+8]
				t.AddRow(s.name, ratioPct(a[0], a[1]), ratioPct(a[2], a[3]), ratioPct(a[4], a[5]), ratioPct(a[6], a[7]))
			}
		},
	}
}

// fig14 reproduces Figure 14: policies with identical replacement state
// overhead (four bits per block) normalized to two-bit DRRIP.
func fig14(o Options) plan {
	geom := o.Geometry(paperLLCBytes)
	return normalizedMisses(geom, fmt.Sprintf("Figure 14: iso-overhead policies vs 2-bit DRRIP (LLC %s)", geom),
		"paper means: LRU 1.072, DRRIP-4 0.996, GS-DRRIP-4 0.983, GSPC 0.882",
		policySpec{name: "LRU", make: func(*stream.Trace) cachesim.Policy { return policy.NewLRU() }},
		policySpec{name: "DRRIP-4", make: func(*stream.Trace) cachesim.Policy { return policy.NewDRRIP(4) }},
		policySpec{name: "GS-DRRIP-4", make: func(*stream.Trace) cachesim.Policy { return policy.NewGSDRRIP(4) }},
		specGSPC(core.VariantGSPC, 8, true))
}

func ratioPct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
