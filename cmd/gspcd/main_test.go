package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	return parseFlags(args, io.Discard)
}

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.engineConfig()
	if cfg.QueueDepth != 64 || cfg.CacheEntries != 128 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.DataDir != "" || !cfg.Fsync || cfg.SnapshotEvery != 256 {
		t.Fatalf("persistence defaults: DataDir=%q Fsync=%v SnapshotEvery=%d",
			cfg.DataDir, cfg.Fsync, cfg.SnapshotEvery)
	}
	if o.drain != 5*time.Minute {
		t.Fatalf("drain default: %s", o.drain)
	}
}

func TestParseFlagsPersistence(t *testing.T) {
	o, err := parse(t, "-data-dir", "/tmp/gspc-data", "-fsync=false", "-snapshot-every", "32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.engineConfig()
	if cfg.DataDir != "/tmp/gspc-data" || cfg.Fsync || cfg.SnapshotEvery != 32 {
		t.Fatalf("persistence flags: DataDir=%q Fsync=%v SnapshotEvery=%d",
			cfg.DataDir, cfg.Fsync, cfg.SnapshotEvery)
	}
}

// TestParseFlagsRejects covers the fail-fast validations: each bad
// command line must be refused at parse time (usage error, exit 2)
// rather than surfacing later as a misconfigured engine.
func TestParseFlagsRejects(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"negative queue", []string{"-queue", "-1"}, "-queue"},
		{"zero queue", []string{"-queue", "0"}, "-queue"},
		{"negative cache", []string{"-cache-entries", "-5"}, "-cache-entries"},
		{"negative workers", []string{"-workers", "-2"}, "-workers"},
		{"negative sim workers", []string{"-sim-workers", "-2"}, "-sim-workers"},
		{"zero snapshot cadence", []string{"-data-dir", "d", "-snapshot-every", "0"}, "-snapshot-every"},
		{"negative snapshot cadence", []string{"-data-dir", "d", "-snapshot-every", "-3"}, "-snapshot-every"},
		{"fsync without data dir", []string{"-fsync=false"}, "requires -data-dir"},
		{"snapshot-every without data dir", []string{"-snapshot-every", "8"}, "requires -data-dir"},
		{"negative drain", []string{"-drain-timeout", "-1s"}, "-drain-timeout"},
		{"bad retries", []string{"-max-retries", "-2"}, "-max-retries"},
		{"bad breaker", []string{"-breaker-threshold", "-2"}, "-breaker-threshold"},
		{"negative trace cache", []string{"-trace-cache-mb", "-1"}, "-trace-cache-mb"},
		{"bad log format", []string{"-log-format", "xml"}, "-log-format"},
		{"zero trace-every", []string{"-trace-every", "0"}, "-trace-every"},
		{"bad trace-every", []string{"-trace-every", "-3"}, "-trace-every"},
		{"negative flight events", []string{"-flight-events", "-1"}, "-flight-events"},
		{"stray argument", []string{"serve"}, "unexpected argument"},
		{"unknown flag", []string{"-no-such-flag"}, "no-such-flag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parse(t, tc.args...); err == nil {
				t.Fatalf("args %v accepted", tc.args)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestParseFlagsObservability(t *testing.T) {
	o, err := parse(t, "-log-format", "json", "-trace-every", "10",
		"-flight-events", "64", "-debug-addr", "127.0.0.1:6060", "-version")
	if err != nil {
		t.Fatal(err)
	}
	if o.logFormat != "json" || o.debugAddr != "127.0.0.1:6060" || !o.version {
		t.Fatalf("observability flags: %+v", o)
	}
	cfg := o.engineConfig()
	if cfg.TraceEvery != 10 || cfg.FlightEvents != 64 {
		t.Fatalf("engine config: TraceEvery=%d FlightEvents=%d, want 10/64", cfg.TraceEvery, cfg.FlightEvents)
	}
	// Defaults: text logs, trace every job, tracing disablable with -1.
	o, err = parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if o.logFormat != "text" || o.traceEvery != 1 || o.debugAddr != "" || o.version {
		t.Fatalf("observability defaults: %+v", o)
	}
	if o, err = parse(t, "-trace-every", "-1"); err != nil {
		t.Fatalf("-trace-every -1 (disable) rejected: %v", err)
	} else if o.engineConfig().TraceEvery != -1 {
		t.Fatalf("disabled tracing not forwarded: %d", o.engineConfig().TraceEvery)
	}
}
