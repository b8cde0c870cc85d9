package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"gspc/internal/harness"
	"gspc/internal/service"
)

// options holds every gspcd flag after parsing and validation, so the
// parse/validate path is testable without exec'ing the binary.
type options struct {
	addr       string
	queue      int
	workers    int
	simWorkers int
	cacheSize  int
	drain      time.Duration

	jobTimeout   time.Duration
	maxRetries   int
	backoff      time.Duration
	brkThresh    int
	brkCooldown  time.Duration
	serveStale   bool
	maxWork      float64
	exposeStacks bool
	traceCacheMB int64

	memLimitMB   int64
	maxRequestMB int64
	sloP50       time.Duration
	sloP99       time.Duration
	sloObjective float64

	dataDir       string
	fsync         bool
	snapshotEvery int

	logFormat    string
	traceEvery   int
	flightEvents int
	debugAddr    string
	nodeName     string
	version      bool

	// explicit records which flags the command line actually set, for
	// validations of the form "-fsync without -data-dir".
	explicit map[string]bool
}

// parseFlags parses args (not including the program name) and
// validates the result. Errors are usage errors: the caller should
// print them and exit 2.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("gspcd", flag.ContinueOnError)
	fs.SetOutput(stderr)

	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.queue, "queue", 64, "job queue depth (beyond this, POSTs get 429)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent experiment runners (0 = GOMAXPROCS)")
	fs.IntVar(&o.simWorkers, "sim-workers", 0, "default per-experiment trace-synthesis workers for requests that leave it unset (0 = harness default)")
	fs.IntVar(&o.cacheSize, "cache-entries", 128, "result cache capacity in entries (0 disables)")
	fs.DurationVar(&o.drain, "drain-timeout", 5*time.Minute, "max time to drain in-flight jobs on shutdown")

	fs.DurationVar(&o.jobTimeout, "job-timeout", 0, "engine-wide per-job deadline; request timeout_ms can only tighten it (0 = none)")
	fs.IntVar(&o.maxRetries, "max-retries", 2, "retries for transient failures (-1 disables)")
	fs.DurationVar(&o.backoff, "retry-backoff", 50*time.Millisecond, "base retry backoff; attempt k waits base*2^k with jitter")
	fs.IntVar(&o.brkThresh, "breaker-threshold", 5, "consecutive failures before an experiment's circuit breaker opens (-1 disables)")
	fs.DurationVar(&o.brkCooldown, "breaker-cooldown", 30*time.Second, "how long an open breaker fast-fails before probing")
	fs.BoolVar(&o.serveStale, "serve-stale", false, "while a breaker is open, answer with the experiment's last good result instead of 503")
	fs.Float64Var(&o.maxWork, "max-work", 0, "admission ceiling in frame-equivalents (frames × scale²) per request (0 = unlimited)")
	fs.BoolVar(&o.exposeStacks, "expose-stacks", false, "include recovered panic stacks in GET /v1/runs/{id} responses (debugging aid; stacks are always logged server-side)")
	fs.Int64Var(&o.traceCacheMB, "trace-cache-mb", harness.DefaultTraceCacheBytes>>20, "byte budget of the shared frame-trace cache in MiB (0 disables retention; synthesis is still deduplicated)")
	fs.Int64Var(&o.memLimitMB, "mem-limit-mb", 0, "process memory budget in MiB: arms the degradation ladder (shrink caches → force sampled → stale-only → shed) and the Go soft memory limit (0 disables)")
	fs.Int64Var(&o.maxRequestMB, "mem-max-request-mb", 0, "per-request ceiling on estimated in-flight trace memory in MiB (0 = unlimited)")
	fs.DurationVar(&o.sloP50, "slo-p50", 0, "p50 latency target every experiment is reported against in /metrics (0 disables)")
	fs.DurationVar(&o.sloP99, "slo-p99", 0, "p99 latency target every experiment is held to; completions above it burn the error budget (0 disables)")
	fs.Float64Var(&o.sloObjective, "slo-objective", 0.99, "SLO objective: the fraction of jobs that must meet the p99 target (with -slo-p99)")

	fs.StringVar(&o.dataDir, "data-dir", "", "directory for the write-ahead journal and snapshots; empty runs in-memory only")
	fs.BoolVar(&o.fsync, "fsync", true, "fsync the journal after every record (requires -data-dir; turning it off risks losing the newest records on power failure)")
	fs.IntVar(&o.snapshotEvery, "snapshot-every", 256, "journal records between snapshot compactions (requires -data-dir)")

	fs.StringVar(&o.logFormat, "log-format", "text", "structured log format: text|json")
	fs.IntVar(&o.traceEvery, "trace-every", 1, "span-trace every Nth job (1 = all, -1 disables; GET /v1/runs/{id}/trace)")
	fs.IntVar(&o.flightEvents, "flight-events", 0, "flight recorder ring size served at /debugz (0 = default 256)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listen address for net/http/pprof profiling (empty disables)")
	fs.StringVar(&o.nodeName, "node-name", "", "cluster member name stamped on every response as X-Gspc-Node (empty disables)")
	fs.BoolVar(&o.version, "version", false, "print build information and exit")

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.explicit = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.explicit[f.Name] = true })
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// validate rejects configurations the engine would either refuse or
// silently reinterpret; the daemon fails fast instead.
func (o *options) validate() error {
	if o.queue < 1 {
		return fmt.Errorf("-queue must be at least 1, got %d", o.queue)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must not be negative, got %d", o.workers)
	}
	if o.simWorkers < 0 {
		return fmt.Errorf("-sim-workers must not be negative, got %d", o.simWorkers)
	}
	if o.cacheSize < 0 {
		return fmt.Errorf("-cache-entries must not be negative, got %d (0 disables the cache)", o.cacheSize)
	}
	if o.drain <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %s", o.drain)
	}
	if o.maxRetries < -1 {
		return fmt.Errorf("-max-retries must be -1 (disabled) or more, got %d", o.maxRetries)
	}
	if o.brkThresh < -1 {
		return fmt.Errorf("-breaker-threshold must be -1 (disabled) or more, got %d", o.brkThresh)
	}
	if o.traceCacheMB < 0 {
		return fmt.Errorf("-trace-cache-mb must not be negative, got %d", o.traceCacheMB)
	}
	if o.memLimitMB < 0 {
		return fmt.Errorf("-mem-limit-mb must not be negative, got %d (0 disables the governor)", o.memLimitMB)
	}
	if o.maxRequestMB < 0 {
		return fmt.Errorf("-mem-max-request-mb must not be negative, got %d (0 = unlimited)", o.maxRequestMB)
	}
	if o.sloP50 < 0 || o.sloP99 < 0 {
		return fmt.Errorf("-slo-p50/-slo-p99 must not be negative")
	}
	if o.sloObjective <= 0 || o.sloObjective >= 1 {
		return fmt.Errorf("-slo-objective must be in (0, 1), got %g", o.sloObjective)
	}
	if o.explicit["slo-objective"] && !o.explicit["slo-p99"] {
		return fmt.Errorf("-slo-objective requires -slo-p99")
	}
	if o.snapshotEvery < 1 {
		return fmt.Errorf("-snapshot-every must be at least 1, got %d", o.snapshotEvery)
	}
	if o.dataDir == "" {
		for _, name := range []string{"fsync", "snapshot-every"} {
			if o.explicit[name] {
				return fmt.Errorf("-%s requires -data-dir", name)
			}
		}
	}
	if o.logFormat != "text" && o.logFormat != "json" {
		return fmt.Errorf("-log-format %q unknown; choose text or json", o.logFormat)
	}
	if o.traceEvery == 0 || o.traceEvery < -1 {
		return fmt.Errorf("-trace-every must be positive or -1 (disabled), got %d", o.traceEvery)
	}
	if o.flightEvents < 0 {
		return fmt.Errorf("-flight-events must not be negative, got %d", o.flightEvents)
	}
	return nil
}

// engineConfig translates the validated flags into a service.Config.
func (o *options) engineConfig() service.Config {
	cfg := service.Config{
		QueueDepth:       o.queue,
		Workers:          o.workers,
		CacheEntries:     o.cacheSize,
		JobTimeout:       o.jobTimeout,
		MaxRetries:       o.maxRetries,
		RetryBackoff:     o.backoff,
		BreakerThreshold: o.brkThresh,
		BreakerCooldown:  o.brkCooldown,
		ServeStale:       o.serveStale,
		MaxWork:          o.maxWork,
		ExposeStacks:     o.exposeStacks,

		DataDir:       o.dataDir,
		Fsync:         o.fsync,
		SnapshotEvery: o.snapshotEvery,

		TraceEvery:      o.traceEvery,
		FlightEvents:    o.flightEvents,
		MaxRequestBytes: o.maxRequestMB << 20,
	}
	// A validated cacheSize is never negative, so the engine's
	// "negative means default" fallback is unreachable from the CLI:
	// 0 disables, anything else is the exact capacity.
	return cfg
}
