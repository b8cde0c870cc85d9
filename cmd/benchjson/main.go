// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document, so benchmark runs can be checked in and diffed
// (`make bench PR=N` writes BENCH_PRN.json this way).
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 3x . | benchjson -pr 6 -label after > BENCH.json
//	benchjson -compare BENCH_A.json BENCH_B.json [-threshold 0.05]
//
// Each benchmark line ("BenchmarkFig12-4  3  1101518978 ns/op  0.90 x")
// becomes one entry with ns_per_op, iterations, and every extra reported
// metric keyed by its unit.
//
// With -compare, the two documents are diffed on ns_per_op per
// benchmark and the exit code is 1 if any benchmark present in both
// regressed by more than -threshold (default 5%). Benchmarks missing
// from either side are reported as warnings, not failures — CI's perf
// gate must fail on slowdowns, not on renames. The allocs/op of each
// side (captured with -benchmem) and their change are printed beside
// ns/op for information; they never affect the exit code.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type entry struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	MsPerOp    float64            `json:"ms_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type doc struct {
	PR         int              `json:"pr,omitempty"`
	Label      string           `json:"label,omitempty"`
	Go         string           `json:"go,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

func main() {
	label := flag.String("label", "", "free-form label recorded in the output (e.g. a commit or 'seed')")
	pr := flag.Int("pr", 0, "PR number recorded in the output (matches the BENCH_PR<N>.json filename)")
	compare := flag.Bool("compare", false, "compare two BENCH json files (baseline, candidate) instead of parsing stdin")
	threshold := flag.Float64("threshold", 0.05, "with -compare: max allowed ns/op regression as a fraction (0.05 = 5%)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: baseline.json candidate.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold))
	}

	out := doc{PR: *pr, Label: *label, Benchmarks: map[string]entry{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"), strings.HasPrefix(line, "pkg:"):
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		// Strip the -GOMAXPROCS suffix from the name.
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		e := entry{Iterations: iters}
		// The remainder alternates value/unit pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			unit := f[i+1]
			if unit == "ns/op" {
				e.NsPerOp = v
				e.MsPerOp = v / 1e6
				continue
			}
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
		out.Benchmarks[name] = e
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func loadDoc(path string) (doc, error) {
	var d doc
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// runCompare diffs candidate against baseline on ns_per_op, writes the
// table to w, and returns the process exit code: 0 when every shared benchmark is within the
// regression threshold, 1 when any hot path got slower than allowed,
// 2 when a file is unreadable. Benchmarks that appear on only one side
// warn but never fail — a perf gate that fails on a renamed or newly
// added benchmark teaches people to delete the gate.
func runCompare(w io.Writer, basePath, candPath string, threshold float64) int {
	base, err := loadDoc(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	cand, err := loadDoc(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-36s %16s %16s %9s %12s %12s %9s\n",
		"benchmark", "base ns/op", "cand ns/op", "delta", "base allocs", "cand allocs", "delta")
	regressions := 0
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cand.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-36s %16.0f %16s %9s  (missing from candidate)\n",
				name, b.NsPerOp, "-", "-")
			continue
		}
		if b.NsPerOp <= 0 {
			fmt.Fprintf(w, "%-36s %16s %16.0f %9s  (no baseline ns/op)\n",
				name, "-", c.NsPerOp, "-")
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := ""
		if delta > threshold {
			verdict = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-36s %16.0f %16.0f %+8.1f%% %s%s\n",
			name, b.NsPerOp, c.NsPerOp, delta*100, allocsCols(b, c), verdict)
	}
	var added []string
	for name := range cand.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(w, "%-36s %16s %16.0f %9s  (new, no baseline)\n",
			name, "-", cand.Benchmarks[name].NsPerOp, "-")
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.1f%% over %s\n",
			regressions, threshold*100, basePath)
		return 1
	}
	fmt.Fprintf(w, "ok: no benchmark regressed more than %.1f%%\n", threshold*100)
	return 0
}

// allocsCols renders the allocs/op columns of one compare row: both
// sides' counts and the relative change (the absolute change when the
// baseline allocated nothing), or "-" for a side captured without
// -benchmem.
func allocsCols(b, c entry) string {
	ba, bok := b.Metrics["allocs/op"]
	ca, cok := c.Metrics["allocs/op"]
	col := func(v float64, ok bool) string {
		if !ok {
			return "-"
		}
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	delta := "-"
	switch {
	case !bok || !cok:
	case ba > 0:
		delta = fmt.Sprintf("%+.1f%%", (ca-ba)/ba*100)
	default:
		delta = fmt.Sprintf("%+.0f", ca-ba)
	}
	return fmt.Sprintf("%12s %12s %9s", col(ba, bok), col(ca, cok), delta)
}
