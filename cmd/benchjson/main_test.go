package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, dir, name string, d doc) string {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json", doc{Benchmarks: map[string]entry{
		"BenchmarkFig12":      {NsPerOp: 1000},
		"BenchmarkTraceGen":   {NsPerOp: 500},
		"BenchmarkRenamedOut": {NsPerOp: 42},
	}})

	cases := []struct {
		name string
		cand map[string]entry
		want int
	}{
		{"within threshold", map[string]entry{
			"BenchmarkFig12":    {NsPerOp: 1040}, // +4%
			"BenchmarkTraceGen": {NsPerOp: 480},
		}, 0},
		{"regression", map[string]entry{
			"BenchmarkFig12":    {NsPerOp: 1100}, // +10%
			"BenchmarkTraceGen": {NsPerOp: 500},
		}, 1},
		{"missing and new benchmarks warn only", map[string]entry{
			"BenchmarkFig12":    {NsPerOp: 1000},
			"BenchmarkBrandNew": {NsPerOp: 9999},
		}, 0},
		{"faster is fine", map[string]entry{
			"BenchmarkFig12":    {NsPerOp: 500},
			"BenchmarkTraceGen": {NsPerOp: 100},
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cand := writeDoc(t, dir, "cand.json", doc{Benchmarks: tc.cand})
			if got := runCompare(io.Discard, base, cand, 0.05); got != tc.want {
				t.Errorf("runCompare = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestCompareUnreadableFile(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "base.json", doc{Benchmarks: map[string]entry{}})
	if got := runCompare(io.Discard, base, filepath.Join(dir, "nope.json"), 0.05); got != 2 {
		t.Errorf("runCompare on missing file = %d, want 2", got)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if got := runCompare(io.Discard, bad, base, 0.05); got != 2 {
		t.Errorf("runCompare on corrupt file = %d, want 2", got)
	}
}

func TestCompareThresholdBoundary(t *testing.T) {
	dir := t.TempDir()
	base := writeDoc(t, dir, "b.json", doc{Benchmarks: map[string]entry{
		"BenchmarkX": {NsPerOp: 1000},
	}})
	// Exactly at the threshold passes; strictly past it fails.
	at := writeDoc(t, dir, "at.json", doc{Benchmarks: map[string]entry{
		"BenchmarkX": {NsPerOp: 1050},
	}})
	if got := runCompare(io.Discard, base, at, 0.05); got != 0 {
		t.Errorf("exactly 5%% = %d, want 0", got)
	}
	over := writeDoc(t, dir, "over.json", doc{Benchmarks: map[string]entry{
		"BenchmarkX": {NsPerOp: 1051},
	}})
	if got := runCompare(io.Discard, base, over, 0.05); got != 1 {
		t.Errorf("just over 5%% = %d, want 1", got)
	}
}

func TestCompareAllocsColumn(t *testing.T) {
	dir := t.TempDir()
	allocs := func(ns, n float64) entry {
		return entry{NsPerOp: ns, Metrics: map[string]float64{"allocs/op": n, "B/op": 8 * n}}
	}
	base := writeDoc(t, dir, "base.json", doc{Benchmarks: map[string]entry{
		"BenchmarkFig15":    allocs(1000, 11260524),
		"BenchmarkNoAllocs": allocs(1000, 0),
		"BenchmarkNoMem":    {NsPerOp: 1000},
	}})
	cand := writeDoc(t, dir, "cand.json", doc{Benchmarks: map[string]entry{
		"BenchmarkFig15":    allocs(600, 1624),
		"BenchmarkNoAllocs": allocs(1000, 3),
		"BenchmarkNoMem":    allocs(1000, 7),
	}})
	var out bytes.Buffer
	// More allocations never fail the gate: only ns/op does.
	if got := runCompare(&out, base, cand, 0.05); got != 0 {
		t.Fatalf("runCompare = %d, want 0\n%s", got, out.String())
	}
	want := map[string][]string{
		"BenchmarkFig15":    {"11260524", "1624", "-100.0%"},
		"BenchmarkNoAllocs": {"0", "3", "+3"},
		"BenchmarkNoMem":    {"-", "7", "-"},
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || want[f[0]] == nil {
			continue
		}
		if len(f) != 7 || strings.Join(f[4:], " ") != strings.Join(want[f[0]], " ") {
			t.Errorf("row %q: allocs columns %v, want %v", line, f[min(4, len(f)):], want[f[0]])
		}
		delete(want, f[0])
	}
	for name := range want {
		t.Errorf("no compare row for %s:\n%s", name, out.String())
	}
}
