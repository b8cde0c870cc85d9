// Command gspcd serves the paper's experiments over HTTP: a bounded job
// queue, a worker pool, request coalescing, and an LRU result cache.
//
// Usage:
//
//	gspcd [-addr :8080] [-queue 64] [-workers N] [-sim-workers N]
//	      [-cache-entries 128]
//	      [-job-timeout 0] [-max-retries 2] [-retry-backoff 50ms]
//	      [-breaker-threshold 5] [-breaker-cooldown 30s]
//	      [-serve-stale] [-max-work 0] [-expose-stacks]
//	      [-mem-limit-mb 0] [-mem-max-request-mb 0]
//	      [-slo-p50 0] [-slo-p99 0] [-slo-objective 0.99]
//	      [-data-dir DIR] [-fsync=true] [-snapshot-every 256]
//	      [-log-format text|json] [-trace-every 1] [-flight-events 256]
//	      [-debug-addr ADDR] [-node-name NAME] [-version]
//
// With -data-dir set, every job transition is appended to a
// checksummed write-ahead journal and completed results are
// snapshotted, so a crashed or restarted gspcd comes back remembering
// its runs: GET /v1/runs/{id} keeps answering across restarts.
//
// Endpoints:
//
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while draining/saturated/broken)
//	GET  /metricsz           counters: hits/misses, queue depth, latency percentiles
//	GET  /metrics            Prometheus text exposition
//	GET  /debugz             flight recorder: recent job lifecycle events
//	GET  /versionz           build identification
//	GET  /v1/experiments     runnable experiment ids
//	POST /v1/runs            {"experiment":"fig12","frames":1,...}; ?wait=0 queues,
//	                         ?timeout_ms=N caps the run deadline
//	GET  /v1/runs/{id}       job status and result
//	GET  /v1/runs/{id}/trace Chrome/Perfetto trace-event JSON of the run
//
// With -debug-addr set, a second listener serves net/http/pprof on
// that address only — profiling never shares a port with production
// traffic.
//
// SIGINT/SIGTERM drain in-flight jobs before exiting.
package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"gspc/internal/harness"
	"gspc/internal/membudget"
	"gspc/internal/service"
	"gspc/internal/telemetry"
)

// newLogger builds the process logger in the selected format.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func main() {
	opt, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gspcd:", err)
		os.Exit(2)
	}
	if opt.version {
		b := telemetry.BuildInfo()
		fmt.Printf("gspcd %s %s (%s", b.Module, b.Version, b.GoVersion)
		if b.Revision != "" {
			rev := b.Revision
			if len(rev) > 12 {
				rev = rev[:12]
			}
			fmt.Printf(", %s", rev)
			if b.Dirty {
				fmt.Print("-dirty")
			}
		}
		fmt.Println(")")
		return
	}
	logger := newLogger(opt.logFormat)
	slog.SetDefault(logger)
	harness.SharedTraceCache().SetBudget(opt.traceCacheMB << 20)

	cfg := opt.engineConfig()
	cfg.Logger = logger
	if opt.memLimitMB > 0 {
		gov, err := membudget.New(membudget.Config{
			Limit:           opt.memLimitMB << 20,
			SetRuntimeLimit: true,
			Logger:          logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gspcd:", err)
			os.Exit(2)
		}
		// Rung 1's action: under pressure the shared trace cache gives up
		// three quarters of its budget (restored on recovery), and its
		// resident bytes count against the governor's accounting. The
		// shrunk budget is also capped at a quarter of the governor
		// limit: when the trace cache is allowed more bytes than the
		// whole process, shrinking to full/4 could still retain more
		// than the limit and pin the ladder at shed with no load.
		full := opt.traceCacheMB << 20
		shrunk := full / 4
		if lim := (opt.memLimitMB << 20) / 4; shrunk > lim {
			shrunk = lim
		}
		gov.ShrinkBudget(harness.SharedTraceCache(), full, shrunk)
		gov.RegisterSource("trace-cache", func() int64 {
			return harness.SharedTraceCache().Stats().BytesUsed
		})
		gov.Start()
		defer gov.Close()
		cfg.Governor = gov
		logger.Info("memory governor armed", "limit_mb", opt.memLimitMB)
	}
	cfg.Latency = telemetry.NewLatency(telemetry.SLOTarget{
		P50: opt.sloP50, P99: opt.sloP99,
	}, opt.sloObjective)
	if opt.simWorkers > 0 {
		sw := opt.simWorkers
		cfg.Run = func(ctx context.Context, r service.Request) (*harness.Result, error) {
			o := r.Options()
			if o.Workers == 0 {
				o.Workers = sw
			}
			return harness.RunResultContext(ctx, r.Experiment, o)
		}
	}
	engine, err := service.NewEngine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gspcd:", err)
		os.Exit(2)
	}

	handler := service.NewServer(engine)
	handler.NodeName = opt.nodeName
	srv := &http.Server{Addr: opt.addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if opt.debugAddr != "" {
		// pprof gets its own mux and listener: the profiling surface is
		// opt-in and never reachable through the serving address.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(opt.debugAddr, dbg); err != nil {
				logger.Error("debug listener failed", "addr", opt.debugAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", opt.debugAddr)
	}
	persistence := "in-memory"
	if opt.dataDir != "" {
		persistence = "journal at " + opt.dataDir
	}
	logger.Info("gspcd listening", "addr", opt.addr, "queue", opt.queue,
		"cache_entries", opt.cacheSize,
		"persistence", persistence)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight jobs", "timeout", opt.drain.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), opt.drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Warn("http shutdown", "err", err)
	}
	if err := engine.Shutdown(shutCtx); err != nil {
		// With -data-dir the journal still holds these jobs as
		// queued/running; the next boot re-enqueues the queued ones and
		// marks the running ones failed-retryable.
		logger.Error("engine drain failed", "err", err, "jobs_abandoned", engine.Unfinished())
		os.Exit(1)
	}
	m := engine.Metrics()
	logger.Info("drained", "requests", m.Requests, "cache_hits", m.CacheHits,
		"coalesced", m.Coalesced, "rejected", m.Rejected)
}
