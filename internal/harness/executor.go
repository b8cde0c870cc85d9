package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gspc/internal/cachesim"
	"gspc/internal/stream"
	"gspc/internal/telemetry"
	"gspc/internal/workload"
)

// plan is one experiment as data: the policies every selected frame is
// run under, how a frame's results reduce to counters, and how an
// application's summed counters become a table row. execute runs every
// plan the same way, so frame iteration, fan-out, the sampling plan,
// stage clocks and cancellation live in one place.
type plan struct {
	title   string
	columns []string
	note    string
	specs   []policySpec
	// geom is the LLC the offline replays run on.
	geom cachesim.Geometry
	// run runs one spec over one frame; nil means an offline replay on
	// geom (runOffline). The timing figures run the timing model instead.
	run func(ctx context.Context, j workload.FrameJob, tr *stream.Trace, sp *samplePlan, spec policySpec) (frameResult, error)
	// frame extracts one frame's counters from its results, which are
	// positional in specs order. The trace and sampling plan are there for
	// Figure 4, which counts the trace itself.
	frame func(rs []frameResult, tr *stream.Trace, sp *samplePlan) []int64
	// row turns one application's counters, summed over its frames, into
	// its table values; execute appends the MEAN row. Nil skips both.
	row func(c []int64) []float64
	// suite, when set, adds rows or notes from the counters summed over
	// every application.
	suite func(t *Table, total []int64)
}

// planned adapts a plan constructor to Experiment.Run.
func planned(mk func(o Options) plan) func(o Options) (*Table, error) {
	return func(o Options) (*Table, error) { return mk(o).execute(o) }
}

// execute runs the plan: each selected frame's specs fan out over the
// worker budget with positional results, the frame's counters fold into
// its application's integer sums, and the table is built once every
// frame is done. Integer sums and positional results make the table
// bit-identical at any worker count.
func (p plan) execute(o Options) (*Table, error) {
	run := p.run
	if run == nil {
		run = func(ctx context.Context, _ workload.FrameJob, tr *stream.Trace, sp *samplePlan, spec policySpec) (frameResult, error) {
			return runOffline(ctx, tr, spec, p.geom, sp)
		}
	}
	per := map[string][]int64{}
	err := forEachFrame(o, func(j workload.FrameJob, tr *stream.Trace, sp *samplePlan) error {
		rs := make([]frameResult, len(p.specs))
		err := fanOut(o.ctx(), o.replayWorkers(), len(p.specs), func(ctx context.Context, i int) error {
			var err error
			rs[i], err = run(ctx, j, tr, sp, p.specs[i])
			return err
		})
		if err != nil {
			return err
		}
		per[j.App.Abbrev] = addCounts(per[j.App.Abbrev], p.frame(rs, tr, sp))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{Title: p.title, Columns: p.columns}
	order := appOrder(o.Jobs())
	if p.row != nil {
		for _, ab := range order {
			t.AddRow(ab, p.row(per[ab])...)
		}
		t.addMean()
	}
	if p.suite != nil {
		var total []int64
		for _, ab := range order {
			total = addCounts(total, per[ab])
		}
		p.suite(t, total)
	}
	if p.note != "" {
		t.Notes = append(t.Notes, p.note)
	}
	return t, nil
}

// addCounts adds c into sum elementwise, allocating sum on first use.
func addCounts(sum, c []int64) []int64 {
	if sum == nil {
		sum = make([]int64, len(c))
	}
	for i, v := range c {
		sum[i] += v
	}
	return sum
}

// jobs is Jobs with the selection checked: an unknown application name
// is an error, never an empty selection whose table would average over
// nothing.
func (o Options) jobs() ([]workload.FrameJob, error) {
	for _, a := range o.Apps {
		if _, ok := workload.ProfileByAbbrev(a); !ok {
			return nil, fmt.Errorf("harness: unknown application %q", a)
		}
	}
	return o.Jobs(), nil
}

// poolSynths counts trace acquisitions by forEachFrame worker pools;
// tests read it (after the pool is joined) to assert that an early
// return stops the workers instead of letting them acquire every
// remaining frame for a consumer that is gone.
var poolSynths atomic.Int64

// frameTrace pairs an acquired frame trace with its sampling plan (nil
// on exact-fidelity runs) for the worker-pool handoff.
type frameTrace struct {
	tr   *stream.Trace
	plan *samplePlan
}

// forEachFrame acquires each selected frame's packed LLC trace — from
// the shared frame-trace cache, synthesizing on a miss — and hands it to
// fn along with the run's sampling plan for that frame (nil for exact
// fidelity). Acquisition runs on a small worker pool; fn itself is
// called serially in suite order (experiment accumulators need no
// locking), so results are identical to a sequential run. Traces are
// shared with the cache and other runs: fn must treat them as read-only.
//
// The run's context is checked before each frame is acquired and again
// before fn runs; the first fn error (typically a cancellation surfaced
// by the per-access polls in cachesim.ReplaySource) stops the sweep.
// The pool works under a local context cancelled on every return — even
// when fn fails while the caller's context is still live — so workers
// never keep synthesizing for a consumer that is gone: they send nil
// placeholders into the buffered channels and exit, and forEachFrame
// joins them before returning, stranding no goroutine. A worker's
// cancelled cache lookup likewise yields a nil placeholder; the consumer
// translates any nil into the context's error.
func forEachFrame(o Options, fn func(j workload.FrameJob, tr *stream.Trace, plan *samplePlan) error) error {
	o = o.normalized()
	jobs, err := o.jobs()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(o.ctx())
	defer cancel()
	workers := o.replayWorkers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			tr, plan, err := acquireFrame(ctx, o, j)
			if err != nil {
				return err
			}
			sp := telemetry.StartFrom(ctx, j.ID(), "frame")
			err = fn(j, tr, plan)
			sp.End()
			if err != nil {
				return err
			}
			o.progressf("  %s: %d LLC accesses\n", j.ID(), tr.Len())
		}
		return nil
	}

	traces := make([]chan frameTrace, len(jobs))
	for i := range traces {
		traces[i] = make(chan frameTrace, 1)
	}
	var next int64 = -1
	var wg sync.WaitGroup
	// Cancel before joining: the workers drain the remaining indices with
	// nil placeholder sends (never blocking — each buffered channel takes
	// exactly one send), so the join is prompt and bounded by at most one
	// in-flight synthesis per worker.
	defer func() {
		cancel()
		wg.Wait()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				if ctx.Err() != nil {
					traces[i] <- frameTrace{} // cancelled: unblock the consumer cheaply
					continue
				}
				poolSynths.Add(1)
				tr, plan, err := acquireFrame(ctx, o, jobs[i])
				if err != nil {
					tr, plan = nil, nil
				}
				traces[i] <- frameTrace{tr: tr, plan: plan}
			}
		}()
	}
	for i, j := range jobs {
		ft := <-traces[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		if ft.tr == nil {
			// The worker's acquisition failed without the run context
			// dying first (e.g. a cancellation race); surface whichever
			// error the context now carries.
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("harness: trace acquisition failed for %s", j.ID())
		}
		sp := telemetry.StartFrom(ctx, j.ID(), "frame")
		err := fn(j, ft.tr, ft.plan)
		sp.End()
		if err != nil {
			return err
		}
		o.progressf("  %s: %d LLC accesses\n", j.ID(), ft.tr.Len())
	}
	return nil
}
