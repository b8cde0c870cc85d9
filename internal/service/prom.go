package service

import (
	"gspc/internal/telemetry"
)

// PromExposition renders the engine's state in the Prometheus text
// exposition format (served at GET /metrics). Every series carries the
// gspc_ prefix; label cardinality is bounded by construction — the only
// labeled series are keyed by stage (3 values), stream kind (8), and
// breaker state per experiment (≤ the 16 experiment ids) — so a scrape
// can never mint unbounded series however the server is driven.
func (e *Engine) PromExposition() []byte {
	m := e.Metrics()
	hist := e.cfg.Latency.Histogram()
	sim := telemetry.Sim()

	var x telemetry.Exposition
	x.Gauge("gspc_uptime_seconds", "Seconds since the engine started.", m.UptimeSeconds)

	x.Counter("gspc_requests_total", "Requests submitted (cache hits included).", float64(m.Requests))
	x.Counter("gspc_jobs_completed_total", "Jobs that finished successfully.", float64(m.Completed))
	x.Counter("gspc_jobs_failed_total", "Jobs that finished in error.", float64(m.Failed))
	x.Counter("gspc_jobs_cancelled_total", "Jobs cancelled before running.", float64(m.Cancelled))
	x.Counter("gspc_requests_rejected_total", "Requests rejected by queue backpressure.", float64(m.Rejected))
	x.Counter("gspc_requests_coalesced_total", "Requests coalesced onto an identical in-flight job.", float64(m.Coalesced))
	x.Counter("gspc_retries_total", "Transient-failure retry attempts.", float64(m.Retries))
	x.Counter("gspc_panics_total", "Experiment panics recovered by the worker pool.", float64(m.Panics))
	x.Counter("gspc_timeouts_total", "Jobs that failed by deadline.", float64(m.Timeouts))

	x.Counter("gspc_replicas_installed_total", "Results replicated onto this node by a cluster coordinator.", float64(m.ReplicasInstalled))

	if s := m.Sampling; s != nil {
		x.Counter("gspc_sampled_jobs_total", "Completed sampled-fidelity jobs.", float64(s.SampledJobs))
		x.Gauge("gspc_sampled_est_rel_err", "Estimated relative error reported by the latest sampled job.", s.LastEstRelErr)
		x.Counter("gspc_sampled_replays_total", "Set-sampled measured replays, process-wide.", float64(s.SampledReplays))
		x.Counter("gspc_sampled_sets", "Sets simulated, summed over set-sampled replays (divide by gspc_sampled_replays_total for the per-replay mean).", float64(s.SampledSets))
		x.Counter("gspc_sampled_sets_total", "Geometry set totals, summed over set-sampled replays.", float64(s.SampledSetsTotal))
		x.Counter("gspc_sampled_skipped_accesses_total", "Accesses skipped by set sampling, process-wide.", float64(s.SkippedAccesses))
		x.Counter("gspc_sampled_simulated_accesses_total", "Accesses simulated under set sampling, process-wide (pre-scaling).", float64(s.SimulatedAccesses))
	}

	x.Counter("gspc_breaker_trips_total", "Circuit breakers tripped open.", float64(m.BreakerTrips))
	x.Counter("gspc_breaker_fast_fails_total", "Submissions fast-failed by an open breaker.", float64(m.BreakerFastFails))
	x.Gauge("gspc_breakers_open", "Experiment breakers currently open.", float64(m.BreakersOpen))
	x.Counter("gspc_stale_served_total", "Degraded responses served from the last good result.", float64(m.StaleServed))

	x.Counter("gspc_result_cache_hits_total", "Result cache hits.", float64(m.CacheHits))
	x.Counter("gspc_result_cache_misses_total", "Result cache misses.", float64(m.CacheMisses))
	x.Counter("gspc_result_cache_evictions_total", "Result cache evictions.", float64(m.CacheEvictions))
	x.Gauge("gspc_result_cache_entries", "Resident result cache entries.", float64(m.CacheEntries))

	x.Gauge("gspc_queue_depth", "Jobs queued and not yet running.", float64(m.QueueDepth))
	x.Gauge("gspc_queue_capacity", "Queue capacity (admission bound).", float64(m.QueueCapacity))
	x.Gauge("gspc_workers", "Concurrent experiment runners.", float64(m.Workers))

	x.Histogram("gspc_job_duration_seconds", "Completed-job run duration.", hist)

	tc := m.TraceCache
	x.Counter("gspc_trace_cache_hits_total", "Frame-trace cache hits.", float64(tc.Hits))
	x.Counter("gspc_trace_cache_misses_total", "Frame-trace cache misses (syntheses).", float64(tc.Misses))
	x.Counter("gspc_trace_cache_coalesced_total", "Lookups that joined an in-flight synthesis.", float64(tc.Coalesced))
	x.Counter("gspc_trace_cache_evictions_total", "Frame traces evicted.", float64(tc.Evictions))
	x.Gauge("gspc_trace_cache_bytes", "Packed trace bytes resident in the frame-trace cache.", float64(tc.BytesUsed))
	x.Gauge("gspc_trace_cache_budget_bytes", "Frame-trace cache byte budget.", float64(tc.BudgetBytes))
	x.Gauge("gspc_trace_cache_entries", "Resident frame traces.", float64(tc.Entries))

	x.CounterVec("gspc_stage_busy_ms_total",
		"Experiment wall time this engine spent per stage, in milliseconds (summed per-invocation; stages overlap under fan-out).",
		"stage", map[string]int64{
			"synth":  int64(m.Stages.SynthMs),
			"replay": int64(m.Stages.ReplayMs),
			"timing": int64(m.Stages.TimingMs),
		})

	x.CounterVec("gspc_llc_stream_accesses_total", "Simulated LLC accesses by stream kind, process-wide.",
		"stream", sim.LLCStreamAccesses)
	x.CounterVec("gspc_llc_stream_hits_total", "Simulated LLC hits by stream kind, process-wide.",
		"stream", sim.LLCStreamHits)
	x.Counter("gspc_dram_reads_total", "Simulated DRAM read requests, process-wide.", float64(sim.DRAMReads))
	x.Counter("gspc_dram_writes_total", "Simulated DRAM write requests, process-wide.", float64(sim.DRAMWrites))
	x.Counter("gspc_dram_row_hits_total", "Simulated DRAM row-buffer hits.", float64(sim.DRAMRowHits))
	x.Counter("gspc_dram_row_misses_total", "Simulated DRAM row-buffer misses (closed row).", float64(sim.DRAMRowMisses))
	x.Counter("gspc_dram_row_conflicts_total", "Simulated DRAM row-buffer conflicts (open different row).", float64(sim.DRAMRowConflicts))

	if mm := m.Memory; mm != nil {
		x.Gauge("gspc_mem_limit_bytes", "Memory governor byte budget.", float64(mm.LimitBytes))
		x.Gauge("gspc_mem_pressure", "Memory pressure: max(accounted, heap) / limit.", mm.Pressure)
		x.Gauge("gspc_mem_heap_bytes", "Adjusted live heap at the last governor sample.", float64(mm.HeapBytes))
		x.Gauge("gspc_mem_accounted_bytes", "Bytes accounted across registered sources plus in-flight reserves.", float64(mm.AccountedBytes))
		x.Gauge("gspc_mem_inflight_bytes", "Reserved in-flight request bytes.", float64(mm.InflightBytes))
		x.Gauge("gspc_mem_heap_high_water_bytes", "Largest adjusted heap ever sampled.", float64(mm.HeapHighWater))
		x.Gauge("gspc_mem_rung", "Current degradation-ladder rung (0 healthy .. 4 shed).", float64(mm.RungLevel))
		x.CounterVec("gspc_mem_rung_entries_total", "Arrivals at each degradation-ladder rung.",
			"rung", mm.RungEntries)
		secs := make(map[string]int64, len(mm.RungSeconds))
		for rung, s := range mm.RungSeconds {
			secs[rung] = int64(s)
		}
		x.CounterVec("gspc_mem_rung_seconds_total", "Wall-clock residency per degradation-ladder rung, in whole seconds.",
			"rung", secs)
		x.Counter("gspc_mem_shed_total", "Requests refused at the shed rung.", float64(mm.Shed))
		x.Counter("gspc_mem_downgrades_total", "Exact requests forced to sampled fidelity by the ladder.", float64(mm.Downgrades))
		x.Counter("gspc_mem_stale_served_total", "Stale answers served because of the stale-only rung.", float64(mm.StaleServed))
	}

	if len(m.SLO) > 0 {
		obs := make(map[string]int64, len(m.SLO))
		breaches := make(map[string]int64, len(m.SLO))
		worst := 0.0
		for _, r := range m.SLO {
			obs[r.Experiment] = r.Observations
			breaches[r.Experiment] = r.Breaches
			if r.BurnRate > worst {
				worst = r.BurnRate
			}
		}
		x.CounterVec("gspc_slo_observations_total", "Completed jobs observed against the latency SLO, per experiment.",
			"experiment", obs)
		x.CounterVec("gspc_slo_breaches_total", "Completed jobs over their p99 latency target, per experiment.",
			"experiment", breaches)
		x.Gauge("gspc_slo_worst_burn", "Highest per-experiment error-budget burn rate (1.0 = budget exactly spent).", worst)
	}

	if d := m.Durable; d != nil {
		// Journal lag: records appended since the last compaction — the
		// replay debt a crash right now would owe at the next boot.
		x.Gauge("gspc_journal_lag_records", "Journal records accumulated since the last compaction.", float64(d.JournalRecords))
		x.Gauge("gspc_journal_bytes", "Write-ahead journal size on disk.", float64(d.JournalBytes))
		x.Counter("gspc_journal_errors_total", "Journal append failures (durability degraded).", float64(d.JournalErrors))
		x.Counter("gspc_journal_compactions_total", "Journal compactions into snapshots.", float64(d.Compactions))
	}
	return x.Bytes()
}
