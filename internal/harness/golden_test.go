package harness

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

// goldenOptions is the fixed configuration the golden tables are pinned
// at: two applications, one frame, a small scale. Everything in the
// repository is deterministic, so these tables must stay bit-identical
// across refactors of the synthesis and replay machinery.
func goldenOptions() Options {
	return Options{
		Scale:           0.1,
		CapacityFactor:  1.5,
		MaxFramesPerApp: 1,
		Apps:            []string{"Dirt", "HAWX"},
	}
}

// sampledGoldenOptions pins the sampled paths. At scale 0.25 a sampled
// run engages interval sampling: offline replays warm on the prefix,
// measure the window and extrapolate, and Figure 15's timing model
// simulates only the warmup-plus-measured window of the frame trace; the
// exact goldenOptions scale never reaches that code. Heaven is pinned
// because its window separates the policies (several apps' windows are
// compute-bound and tie every column at 1).
func sampledGoldenOptions() Options {
	return Options{
		Scale:           0.25,
		CapacityFactor:  1.5,
		MaxFramesPerApp: 1,
		Apps:            []string{"Heaven"},
		Fidelity:        FidelitySampled,
	}
}

// goldenTable is the serialized form of one experiment table: every cell
// at full float64 precision (bit-exact through JSON round-trips).
type goldenTable struct {
	Columns []string    `json:"columns"`
	Rows    []goldenRow `json:"rows"`
	Notes   []string    `json:"notes,omitempty"`
	Title   string      `json:"title"`
}

type goldenRow struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

func tableToGolden(t *Table) goldenTable {
	g := goldenTable{Columns: t.Columns, Notes: t.Notes, Title: t.Title}
	for _, r := range t.Rows {
		g.Rows = append(g.Rows, goldenRow{Label: r.Label, Values: r.Values})
	}
	return g
}

// TestGoldenTables regenerates every experiment — the paper's figures
// and tables plus the extensions — at the pinned configuration and
// requires each cell to match testdata/golden.json bit for bit, and each
// exact table to come out identical at Workers=1. Run with
// -update-golden to re-pin after an intentional model change.
func TestGoldenTables(t *testing.T) {
	o := goldenOptions()
	serial := o
	serial.Workers = 1
	got := map[string]goldenTable{}
	for _, e := range allExperiments() {
		tbl, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got[e.ID] = tableToGolden(tbl)
		// Results are accumulated positionally, so the worker budget
		// must not change a single bit.
		one, err := e.Run(serial)
		if err != nil {
			t.Fatalf("%s (Workers=1): %v", e.ID, err)
		}
		compareGolden(t, e.ID+" (Workers=1)", got[e.ID], tableToGolden(one))
	}
	// The sampled entries pin the warm/measure/extrapolate protocol:
	// fig5 through Belady, DRRIP, NRU and the tracker counters, fig8
	// through DRRIP's fill counters, fig15 through the timing model.
	for _, id := range []string{"fig5", "fig8", "fig15"} {
		e, _ := ByID(id)
		tbl, err := e.Run(sampledGoldenOptions())
		if err != nil {
			t.Fatalf("%s-sampled: %v", id, err)
		}
		got[id+"-sampled"] = tableToGolden(tbl)
	}

	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d experiments)", path, len(got))
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenTable
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Errorf("%s: experiment missing from run", id)
			continue
		}
		compareGolden(t, id, w, g)
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("%s: new experiment not in golden file (run -update-golden)", id)
		}
	}
}

func compareGolden(t *testing.T, id string, want, got goldenTable) {
	t.Helper()
	if len(want.Columns) != len(got.Columns) {
		t.Errorf("%s: %d columns, want %d", id, len(got.Columns), len(want.Columns))
		return
	}
	for i := range want.Columns {
		if want.Columns[i] != got.Columns[i] {
			t.Errorf("%s: column %d = %q, want %q", id, i, got.Columns[i], want.Columns[i])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Errorf("%s: %d rows, want %d", id, len(got.Rows), len(want.Rows))
		return
	}
	for r := range want.Rows {
		wr, gr := want.Rows[r], got.Rows[r]
		if wr.Label != gr.Label {
			t.Errorf("%s: row %d label = %q, want %q", id, r, gr.Label, wr.Label)
			continue
		}
		if len(wr.Values) != len(gr.Values) {
			t.Errorf("%s/%s: %d values, want %d", id, wr.Label, len(gr.Values), len(wr.Values))
			continue
		}
		for c := range wr.Values {
			// Bit-exact: the experiments are deterministic and the
			// accumulation order is part of the contract.
			if math.Float64bits(wr.Values[c]) != math.Float64bits(gr.Values[c]) {
				t.Errorf("%s/%s/%s = %v, want %v (bit-exact)",
					id, wr.Label, want.Columns[c], gr.Values[c], wr.Values[c])
			}
		}
	}
}
