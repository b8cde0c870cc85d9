package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// Two member expositions shared by the golden test and the fuzz seeds.
var (
	federateN1 = strings.Join([]string{
		"# HELP gspc_jobs_total Jobs accepted.",
		"# TYPE gspc_jobs_total counter",
		"gspc_jobs_total 10",
		"# HELP gspc_queue_depth Jobs queued.",
		"# TYPE gspc_queue_depth gauge",
		"gspc_queue_depth 2",
		"# HELP gspc_job_duration_seconds Job wall time.",
		"# TYPE gspc_job_duration_seconds histogram",
		`gspc_job_duration_seconds_bucket{le="1"} 3`,
		`gspc_job_duration_seconds_bucket{le="+Inf"} 4`,
		"gspc_job_duration_seconds_sum 5.5",
		"gspc_job_duration_seconds_count 4",
		"",
	}, "\n")
	federateN2 = strings.Join([]string{
		"# HELP gspc_jobs_total Jobs accepted.",
		"# TYPE gspc_jobs_total counter",
		"gspc_jobs_total 7",
		"# HELP gspc_cache_hits_total Cache hits by kind.",
		"# TYPE gspc_cache_hits_total counter",
		`gspc_cache_hits_total{kind="exact"} 5`,
		"",
	}, "\n")
)

// TestFederateGolden pins the merged exposition byte-for-byte: node
// label injected first, families deduplicated with first HELP/TYPE
// winning, families sorted, series in node order within a family.
func TestFederateGolden(t *testing.T) {
	got := string(Federate([]FederatedScrape{
		{Node: "n1", Body: []byte(federateN1)},
		{Node: "n2", Body: []byte(federateN2)},
	}))
	want := strings.Join([]string{
		"# HELP gspc_cache_hits_total Cache hits by kind.",
		"# TYPE gspc_cache_hits_total counter",
		`gspc_cache_hits_total{node="n2",kind="exact"} 5`,
		"# HELP gspc_job_duration_seconds Job wall time.",
		"# TYPE gspc_job_duration_seconds histogram",
		`gspc_job_duration_seconds_bucket{node="n1",le="1"} 3`,
		`gspc_job_duration_seconds_bucket{node="n1",le="+Inf"} 4`,
		`gspc_job_duration_seconds_sum{node="n1"} 5.5`,
		`gspc_job_duration_seconds_count{node="n1"} 4`,
		"# HELP gspc_jobs_total Jobs accepted.",
		"# TYPE gspc_jobs_total counter",
		`gspc_jobs_total{node="n1"} 10`,
		`gspc_jobs_total{node="n2"} 7`,
		"# HELP gspc_queue_depth Jobs queued.",
		"# TYPE gspc_queue_depth gauge",
		`gspc_queue_depth{node="n1"} 2`,
		"",
	}, "\n")
	if got != want {
		t.Errorf("federated exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFederateIsDeterministic(t *testing.T) {
	scrapes := []FederatedScrape{
		{Node: "b", Body: []byte("# TYPE m counter\nm 1\n")},
		{Node: "a", Body: []byte("# TYPE m counter\nm 2\n")},
	}
	first := string(Federate(scrapes))
	for i := 0; i < 5; i++ {
		if got := string(Federate(scrapes)); got != first {
			t.Fatalf("federation not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestFederateEscapesNodeLabel(t *testing.T) {
	got := string(Federate([]FederatedScrape{
		{Node: `no"de\1`, Body: []byte("m 1\n")},
	}))
	if !strings.Contains(got, `m{node="no\"de\\1"} 1`) {
		t.Errorf("node label not escaped:\n%s", got)
	}
}

func TestFederateHandlesUnheaderedAndEmptyLabelSeries(t *testing.T) {
	body := "m_no_header{} 4\nplain 9\n"
	got := string(Federate([]FederatedScrape{{Node: "x", Body: []byte(body)}}))
	for _, want := range []string{
		"# TYPE m_no_header untyped",
		`m_no_header{node="x"} 4`,
		`plain{node="x"} 9`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestFederateKeepsTimestampedValue(t *testing.T) {
	got := string(Federate([]FederatedScrape{
		{Node: "x", Body: []byte("m 3 1712345678\n")},
	}))
	if !strings.Contains(got, `m{node="x"} 3 1712345678`) {
		t.Errorf("timestamp dropped:\n%s", got)
	}
}

// FuzzFederate feeds arbitrary member exposition text (it arrives off
// the network) through the federation parser. It must never panic, be
// byte-deterministic, put node="…" first on every emitted sample, and
// emit exactly one sample per input sample line — one extra label, no
// new or lost series.
func FuzzFederate(f *testing.F) {
	for _, body := range []string{federateN1, federateN2,
		"m_no_header{} 4\nplain 9\n", "m 3 1712345678\n", "m x{y 1\n"} {
		f.Add([]byte(body), "n1")
	}
	f.Add([]byte("m 1\n"), `no"de\1`)
	f.Fuzz(func(t *testing.T, body []byte, node string) {
		scrapes := []FederatedScrape{{Node: node, Body: body}}
		out := Federate(scrapes)
		if again := Federate(scrapes); !bytes.Equal(out, again) {
			t.Fatalf("federation not deterministic:\n%q\nvs\n%q", out, again)
		}
		want := 0
		for _, ln := range strings.Split(string(body), "\n") {
			ln = strings.TrimSpace(ln)
			if ln != "" && !strings.HasPrefix(ln, "#") && seriesName(ln) != "" {
				want++
			}
		}
		label := `{node="` + escapeLabel(node) + `"`
		got := 0
		for _, ln := range strings.Split(string(out), "\n") {
			if ln == "" || strings.HasPrefix(ln, "#") {
				continue
			}
			got++
			if name := seriesName(ln); !strings.HasPrefix(ln[len(name):], label) {
				t.Fatalf("sample %q does not carry %s as its first label", ln, label)
			}
		}
		if got != want {
			t.Fatalf("emitted %d samples for %d input samples:\n%s", got, want, out)
		}
	})
}
