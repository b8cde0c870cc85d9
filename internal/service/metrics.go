package service

import (
	"time"

	"gspc/internal/durable"
	"gspc/internal/harness"
	"gspc/internal/membudget"
	"gspc/internal/telemetry"
	"gspc/internal/tracecache"
)

// Metrics is the counter snapshot served at /metricsz.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
	Coalesced int64 `json:"coalesced"`
	Cancelled int64 `json:"cancelled"`

	Retries  int64 `json:"retries"`
	Panics   int64 `json:"panics"`
	Timeouts int64 `json:"timeouts"`

	// ReplicasInstalled counts results replicated onto this node by a
	// cluster coordinator (PUT /v1/replicas/{key}).
	ReplicasInstalled int64 `json:"replicas_installed"`

	// Sampling reports sampled-fidelity serving: jobs answered sampled
	// and the process-wide set-sampling replay counters. Omitted until
	// the first sampled job.
	Sampling *SamplingMetrics `json:"sampling,omitempty"`

	BreakerTrips     int64             `json:"breaker_trips"`
	BreakerFastFails int64             `json:"breaker_fast_fails"`
	BreakersOpen     int               `json:"breakers_open"`
	BreakerStates    map[string]string `json:"breaker_states,omitempty"`
	StaleServed      int64             `json:"stale_served"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheEntries   int   `json:"cache_entries"`
	CacheCapacity  int   `json:"cache_capacity"`

	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Workers       int `json:"workers"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`

	// TraceCache reports the process-wide frame-trace cache (hits,
	// misses, coalesced synthesis, evicted bytes, budget) — process
	// global, not per-engine: every engine in the process shares the one
	// cache. Stages splits THIS engine's accumulated experiment time
	// into synthesis, offline replay, and timing simulation;
	// StagesProcess is the process-wide sum over every engine and direct
	// harness call, so per-engine numbers always account into it.
	TraceCache    tracecache.Stats     `json:"trace_cache"`
	Stages        harness.StageTimings `json:"stages"`
	StagesProcess harness.StageTimings `json:"stages_process"`

	// Durable reports the write-ahead journal and the boot recovery
	// outcome when -data-dir is set; absent otherwise. Recovery
	// counters let operators verify a restart recovered state (jobs
	// restored, cache rehydrated) rather than silently rebuilt it.
	Durable *DurableMetrics `json:"durable,omitempty"`

	// Memory reports the memory governor's ladder state and the
	// serving-path consequences (sheds, fidelity downgrades, stale-only
	// serves); absent without a governor.
	Memory *MemoryMetrics `json:"memory,omitempty"`

	// SLO reports per-experiment latency-target tracking (measured
	// p50/p99 against the target, breaches, error-budget burn); absent
	// when the latency recorder has no target or before the first
	// completed job.
	SLO []telemetry.SLOReport `json:"slo,omitempty"`
}

// MemoryMetrics is the memory-governor section of /metricsz: the full
// governor snapshot (pressure, rung, per-rung entry counts and
// residency, heap high-water) plus this engine's ladder-driven serving
// counters.
type MemoryMetrics struct {
	membudget.Snapshot
	// Shed counts requests refused outright at the shed rung;
	// Downgrades counts exact requests forced to sampled fidelity;
	// StaleServed counts stale answers served because of the stale-only
	// rung (disjoint from the breaker-driven stale_served counter).
	Shed        int64 `json:"shed"`
	Downgrades  int64 `json:"downgrades"`
	StaleServed int64 `json:"stale_served"`
}

// SamplingMetrics is the sampled-fidelity section of /metricsz.
type SamplingMetrics struct {
	// SampledJobs counts completed sampled-fidelity jobs; LastEstRelErr
	// is the estimated relative error the most recent one reported.
	SampledJobs   int64   `json:"sampled_jobs"`
	LastEstRelErr float64 `json:"last_est_rel_err"`
	// Process-wide set-sampling replay counters (every engine in the
	// process shares them, like the trace cache): measured replays,
	// sampled-subset and geometry set counts summed over replays (divide
	// by SampledReplays for per-replay means), and the accesses skipped
	// versus simulated.
	SampledReplays    int64 `json:"sampled_replays"`
	SampledSets       int64 `json:"sampled_sets"`
	SampledSetsTotal  int64 `json:"sampled_sets_total"`
	SkippedAccesses   int64 `json:"skipped_accesses"`
	SimulatedAccesses int64 `json:"simulated_accesses"`
}

// DurableMetrics is the persistence section of /metricsz.
type DurableMetrics struct {
	// Journal/snapshot store counters: journal size and record count,
	// append failures, compactions, records replayed at boot, torn
	// tail bytes truncated, and corrupt snapshots quarantined.
	durable.Stats
	// JournalErrors counts engine-level append failures (a superset
	// clock of Stats.AppendErrors that also covers encode failures).
	JournalErrors int64 `json:"journal_errors"`
	// Recovery is the boot outcome.
	Recovery recoveryStats `json:"recovery"`
}

// Metrics snapshots the engine counters. The whole snapshot — result
// cache counters included — is captured under one acquisition of e.mu,
// so a scrape racing a completing job can never pair the job's cache
// insert with pre-completion engine counters (the cache has its own
// lock and never takes e.mu, so the nested acquisition cannot cycle).
func (e *Engine) Metrics() Metrics {
	// Governor and latency snapshots are taken before e.mu: both have
	// their own locks, the governor's byte-source gauges must never be
	// read while this engine's mutex is held above them in another
	// goroutine, and quantile sorting stays off the engine lock.
	var memory *MemoryMetrics
	if g := e.cfg.Governor; g != nil {
		memory = &MemoryMetrics{Snapshot: g.Snapshot()}
	}
	lat := e.cfg.Latency.Quantiles(0.50, 0.95)
	var slo []telemetry.SLOReport
	if e.cfg.Latency.HasTarget() {
		slo = e.cfg.Latency.Report()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if memory != nil {
		memory.Shed = e.memShed
		memory.Downgrades = e.memDowngrades
		memory.StaleServed = e.memStaleServed
	}
	cache := e.cache.Stats()
	var sampling *SamplingMetrics
	if sim := telemetry.Sim(); e.sampledJobs > 0 || sim.SampledReplays > 0 {
		sampling = &SamplingMetrics{
			SampledJobs:       e.sampledJobs,
			LastEstRelErr:     e.lastSampledErr,
			SampledReplays:    sim.SampledReplays,
			SampledSets:       sim.SampledSets,
			SampledSetsTotal:  sim.SampledSetsTotal,
			SkippedAccesses:   sim.SampledSkippedAcc,
			SimulatedAccesses: sim.SampledSimulatedAcc,
		}
	}
	var durableMetrics *DurableMetrics
	if e.store != nil {
		durableMetrics = &DurableMetrics{
			Stats:         e.store.Stats(),
			JournalErrors: e.journalErrors,
			Recovery:      e.recovery,
		}
	}
	now := time.Now()
	var open int
	var states map[string]string
	if len(e.breakers) > 0 {
		states = make(map[string]string, len(e.breakers))
		for id, b := range e.breakers {
			states[id] = b.state.String()
			if b.openNow(now) {
				open++
			}
		}
	}
	return Metrics{
		UptimeSeconds: time.Since(e.start).Seconds(),
		Requests:      e.requests,
		Completed:     e.completed,
		Failed:        e.failed,
		Rejected:      e.rejected,
		Coalesced:     e.coalesced,
		Cancelled:     e.cancelled,

		Retries:  e.retries,
		Panics:   e.panics,
		Timeouts: e.timeouts,

		ReplicasInstalled: e.replicasInstalled,
		Sampling:          sampling,

		BreakerTrips:     e.breakerTrips,
		BreakerFastFails: e.breakerFastFails,
		BreakersOpen:     open,
		BreakerStates:    states,
		StaleServed:      e.staleServed,

		CacheHits:      cache.Hits,
		CacheMisses:    cache.Misses,
		CacheEvictions: cache.Evictions,
		CacheEntries:   cache.Entries,
		CacheCapacity:  int(cache.Budget),
		QueueDepth:     len(e.queue),
		QueueCapacity:  e.cfg.QueueDepth,
		Workers:        e.cfg.Workers,
		LatencyP50Ms:   lat[0],
		LatencyP95Ms:   lat[1],

		TraceCache:    harness.SharedTraceCache().Stats(),
		Stages:        e.stages.Timings(),
		StagesProcess: harness.Timings(),
		Durable:       durableMetrics,
		Memory:        memory,
		SLO:           slo,
	}
}
