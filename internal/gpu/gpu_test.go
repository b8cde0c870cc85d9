package gpu

import (
	"sort"
	"strings"
	"testing"

	"gspc/internal/cachesim"
	"gspc/internal/policy"
	"gspc/internal/stream"
	"gspc/internal/xrand"
)

func smallGeom() cachesim.Geometry {
	return cachesim.Geometry{SizeBytes: 64 << 10, Ways: 16, BlockSize: 64}
}

func smallConfig() Config {
	cfg := DefaultConfig(smallGeom())
	cfg.Cores = 4
	cfg.ThreadsPerCore = 4
	cfg.Samplers = 2
	return cfg
}

// buildTrace builds an n-record trace whose record i is at(i).
func buildTrace(n int, at func(i int) stream.Access) *stream.Trace {
	tr := stream.NewTrace(n)
	for i := range n {
		tr.Append(at(i))
	}
	return tr
}

// mkTrace builds a trace of n accesses striding over blocks.
func mkTrace(n, distinct int, kind stream.Kind) *stream.Trace {
	return buildTrace(n, func(i int) stream.Access {
		return stream.Access{Addr: uint64(i%distinct) * 64, Kind: kind}
	})
}

func TestSimulateProcessesAllAccesses(t *testing.T) {
	tr := mkTrace(5000, 700, stream.Texture)
	r := SimulateSource(tr, smallConfig(), policy.NewDRRIP(2))
	if r.Accesses != int64(tr.Len()) {
		t.Errorf("processed %d accesses, want %d", r.Accesses, tr.Len())
	}
	if r.LLC.Accesses != int64(tr.Len()) {
		t.Errorf("LLC saw %d accesses, want %d", r.LLC.Accesses, tr.Len())
	}
	if r.Cycles <= 0 || r.FPS <= 0 {
		t.Errorf("cycles=%d fps=%v", r.Cycles, r.FPS)
	}
}

func TestEmptyTrace(t *testing.T) {
	r := SimulateSource(stream.NewTrace(0), smallConfig(), policy.NewDRRIP(2))
	if r.Accesses != 0 {
		t.Errorf("accesses = %d", r.Accesses)
	}
}

func TestShortTraceFewerChunksThanThreads(t *testing.T) {
	tr := mkTrace(10, 10, stream.Z)
	r := SimulateSource(tr, smallConfig(), policy.NewDRRIP(2))
	if r.Accesses != 10 {
		t.Errorf("processed %d of 10", r.Accesses)
	}
}

func TestDeterminism(t *testing.T) {
	tr := mkTrace(20000, 3000, stream.RT)
	a := SimulateSource(tr, smallConfig(), policy.NewDRRIP(2))
	b := SimulateSource(tr, smallConfig(), policy.NewDRRIP(2))
	if a.Cycles != b.Cycles || a.LLC.Misses != b.LLC.Misses {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/misses", a.Cycles, a.LLC.Misses, b.Cycles, b.LLC.Misses)
	}
}

func TestMoreMissesMoreCycles(t *testing.T) {
	// A working set that fits vs one that thrashes: the thrashing run
	// must take longer.
	fits := mkTrace(30000, 256, stream.Texture)    // 16 KB working set
	thrash := mkTrace(30000, 8192, stream.Texture) // 512 KB working set in a 64 KB LLC
	rf := SimulateSource(fits, smallConfig(), policy.NewLRU())
	rt := SimulateSource(thrash, smallConfig(), policy.NewLRU())
	if rf.LLC.Misses >= rt.LLC.Misses {
		t.Fatalf("setup broken: fits misses %d >= thrash misses %d", rf.LLC.Misses, rt.LLC.Misses)
	}
	if rf.Cycles >= rt.Cycles {
		t.Errorf("fewer misses should be faster: %d vs %d cycles", rf.Cycles, rt.Cycles)
	}
	if rt.DRAM.Reads == 0 {
		t.Error("thrash run produced no DRAM reads")
	}
}

func TestUncachedDisplayBypasses(t *testing.T) {
	tr := mkTrace(5000, 500, stream.Display)
	cfg := smallConfig()
	cfg.UncachedDisplay = true
	r := SimulateSource(tr, cfg, policy.NewDRRIP(2))
	if r.LLC.Bypasses != r.LLC.Misses {
		t.Errorf("display accesses should all bypass: %d bypasses, %d misses", r.LLC.Bypasses, r.LLC.Misses)
	}
}

func TestWritebacksReachDRAM(t *testing.T) {
	// Writes that thrash generate writebacks, which must appear as DRAM
	// writes.
	tr := buildTrace(20000, func(i int) stream.Access {
		return stream.Access{Addr: uint64(i%4096) * 64, Kind: stream.RT, Write: true}
	})
	r := SimulateSource(tr, smallConfig(), policy.NewLRU())
	if r.DRAM.Writes == 0 {
		t.Error("no writebacks reached DRAM")
	}
}

func TestFewerThreadsSlower(t *testing.T) {
	tr := mkTrace(40000, 6000, stream.Texture)
	big := smallConfig()
	small := smallConfig()
	small.Cores = 1
	rb := SimulateSource(tr, big, policy.NewDRRIP(2))
	rs := SimulateSource(tr, small, policy.NewDRRIP(2))
	if rs.Cycles <= rb.Cycles {
		t.Errorf("1-core GPU should be slower: %d vs %d", rs.Cycles, rb.Cycles)
	}
}

func TestComputeGapDefaultsApplied(t *testing.T) {
	cfg := smallConfig()
	cfg.ComputeGap = [stream.NumKinds]int{} // all zero -> defaults
	tr := mkTrace(1000, 100, stream.Vertex)
	r := SimulateSource(tr, cfg, policy.NewDRRIP(2))
	if r.Cycles < int64(DefaultComputeGap[stream.Vertex]) {
		t.Error("compute gaps apparently not applied")
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	// All-store trace: threads never wait on DRAM, so the run should be
	// much faster than an all-load trace with the same miss profile.
	// RT rather than texture avoids the sampler path for a clean compare.
	loadsRT := mkTrace(20000, 8192, stream.RT)
	stores := buildTrace(loadsRT.Len(), func(i int) stream.Access {
		a := loadsRT.At(i)
		a.Write = true
		return a
	})
	rl := SimulateSource(loadsRT, smallConfig(), policy.NewLRU())
	rs := SimulateSource(stores, smallConfig(), policy.NewLRU())
	if rs.Cycles >= rl.Cycles {
		t.Errorf("store trace (%d cycles) should be faster than load trace (%d)", rs.Cycles, rl.Cycles)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"zero threads per core", func(c *Config) { c.ThreadsPerCore = 0 }},
		{"zero LLC banks", func(c *Config) { c.LLCBanks = 0 }},
		{"negative LLC banks", func(c *Config) { c.LLCBanks = -2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "gpu: invalid ") {
					t.Errorf("panic %q, want a \"gpu: invalid ...\" message", msg)
				}
			}()
			cfg := smallConfig()
			tc.mut(&cfg)
			SimulateSource(mkTrace(10, 10, stream.Z), cfg, policy.NewLRU())
		})
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(smallGeom())
	if cfg.Cores != 96 || cfg.ThreadsPerCore != 8 || cfg.Samplers != 12 {
		t.Errorf("shader array %+v", cfg)
	}
	if cfg.ClockGHz != 1.6 || cfg.LLCLatency != 20 || cfg.LLCBanks != 4 {
		t.Errorf("clocks/LLC %+v", cfg)
	}
	if cfg.Cores*cfg.ThreadsPerCore != 768 {
		t.Error("thread contexts != 768")
	}
}

func TestMSHRMergesDuplicateMisses(t *testing.T) {
	// Many threads missing on the same few blocks: MSHRs must merge the
	// concurrent fetches so DRAM reads stay well below the thread count.
	tr := mkTrace(4096, 8, stream.Texture)
	cfg := smallConfig()
	r := SimulateSource(tr, cfg, policy.NewLRU())
	// 8 distinct blocks: the LLC misses at most a handful of times and
	// DRAM sees no more reads than LLC misses.
	if r.DRAM.Reads > r.LLC.Misses {
		t.Errorf("DRAM reads %d exceed LLC misses %d (MSHR merge broken)", r.DRAM.Reads, r.LLC.Misses)
	}
	if r.LLC.Misses > 16 {
		t.Errorf("LLC misses = %d for an 8-block trace", r.LLC.Misses)
	}
}

func TestSecondaryMissWaitsForFill(t *testing.T) {
	// Two threads touching the same cold block: the second (a hit on an
	// in-flight line) must not complete before DRAM latency allows.
	tr := stream.Pack([]stream.Access{
		{Addr: 0, Kind: stream.Z},
		{Addr: 0, Kind: stream.Z},
	})
	cfg := smallConfig()
	cfg.ChunkSize = 1 // force the two accesses onto different threads
	r := SimulateSource(tr, cfg, policy.NewLRU())
	// The frame cannot finish before one DRAM round trip.
	if r.Cycles < 60 {
		t.Errorf("frame finished in %d cycles, before DRAM could respond", r.Cycles)
	}
}

// TestEventQueueMatchesSort drives the event queue the way the timing
// loop does — the earliest event either retires or is rescheduled no
// earlier than it was — and requires it to agree with a reference that
// re-sorts the pending events on (t, seq) before every step.
func TestEventQueueMatchesSort(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := xrand.New(seed)
		n := 1 + r.Intn(200)
		var q eventQueue
		for i, s := range permutation(r, n) {
			q = append(q, event{t: int64(r.Intn(20)), seq: int64(s), thread: int32(i)})
		}
		pending := append([]event(nil), q...)
		q.init()
		seq := int64(n)
		var popped []event
		for reschedules := 0; len(q) > 0; {
			sort.Slice(pending, func(i, j int) bool { return pending[i].before(pending[j]) })
			if q[0] != pending[0] {
				t.Fatalf("seed %d: top %+v, want %+v", seed, q[0], pending[0])
			}
			if reschedules < 4*n && r.Bool(0.7) {
				e := event{t: q[0].t + int64(r.Intn(20)), seq: seq, thread: q[0].thread}
				seq++
				reschedules++
				q.replaceTop(e)
				pending[0] = e
				continue
			}
			popped = append(popped, q[0])
			q.pop()
			pending = pending[1:]
		}
		want := append([]event(nil), popped...)
		sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
		for i := range want {
			if popped[i] != want[i] {
				t.Fatalf("seed %d: pop %d = %+v, want %+v", seed, i, popped[i], want[i])
			}
		}
	}
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(r *xrand.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestMSHRTableMatchesMap replays one random put/reclaim sequence, with a
// non-monotonic now, against the MSHR table and a plain map and requires
// identical lookups after every step.
func TestMSHRTableMatchesMap(t *testing.T) {
	cases := []struct {
		name      string
		slots     int
		keys      int
		reclaimP  float64
		wantGrown bool
	}{
		{"churn", 64, 40, 0.1, false},
		{"simulation-sized table", 2 * mshrReclaimAt, 6000, 0.002, false},
		// Far more live entries than initial slots: the table must grow
		// rather than probe forever.
		{"grows past initial capacity", 16, 3000, 0.0005, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := xrand.New(uint64(i + 1))
			// Block numbers from anywhere in the address space, plus 0.
			keys := make([]uint64, tc.keys)
			for k := 1; k < len(keys); k++ {
				keys[k] = r.Uint64() >> 6
			}
			m := newMSHRTable(tc.slots)
			ref := map[uint64]int64{}
			check := func(step int, bn uint64) {
				got, ok := m.get(bn)
				want, wok := ref[bn]
				if got != want || ok != wok {
					t.Fatalf("step %d: get(%d) = %d,%v, want %d,%v", step, bn, got, ok, want, wok)
				}
			}
			now := int64(1 << 20)
			for step := range 20000 {
				now += int64(r.Intn(200)) - 90
				bn := keys[r.Intn(len(keys))]
				if r.Bool(tc.reclaimP) {
					m.reclaim(now)
					for k, d := range ref {
						if d <= now {
							delete(ref, k)
						}
					}
				} else {
					done := now + int64(r.Intn(500))
					m.put(bn, done)
					ref[bn] = done
				}
				if m.live != len(ref) {
					t.Fatalf("step %d: %d live entries, want %d", step, m.live, len(ref))
				}
				check(step, bn)
				check(step, keys[r.Intn(len(keys))])
			}
			for _, bn := range keys {
				check(-1, bn)
			}
			if grown := len(m.slots) > tc.slots; grown != tc.wantGrown {
				t.Errorf("table grew to %d slots from %d, want grown=%v", len(m.slots), tc.slots, tc.wantGrown)
			}
		})
	}
}

// TestSimulateAllocsFlatInTraceLength requires the per-access path to
// allocate nothing: a trace eight times longer costs no more allocations.
func TestSimulateAllocsFlatInTraceLength(t *testing.T) {
	cfg := DefaultConfig(smallGeom())
	allocs := func(tr *stream.Trace) float64 {
		return testing.AllocsPerRun(3, func() {
			SimulateSource(tr, cfg, policy.NewDRRIP(2))
		})
	}
	const n = 6000
	short := allocs(mkTrace(n, 5000, stream.Texture))
	long := allocs(mkTrace(8*n, 5000, stream.Texture))
	if short != long {
		t.Errorf("%v allocs for %d accesses, %v for %d: allocation grows with trace length", short, n, long, 8*n)
	}
}

// TestMSHRReclaimMomentPinned pins cycle counts on mixed-stream traces
// whose timing depends on exactly when completed MSHR entries are
// reclaimed: on each of them, reclaiming one insert later (at 4098 live
// entries instead of 4097) changes the cycle count, because now is not
// monotonic and a stale entry can still delay a later access.
func TestMSHRReclaimMomentPinned(t *testing.T) {
	cases := []struct {
		seed   uint64
		cycles int64
		reads  int64
	}{
		{5, 411609, 23039},
		{6, 368876, 20710},
		{8, 408326, 22860},
		{18, 329661, 17166},
	}
	cfg := DefaultConfig(cachesim.Geometry{SizeBytes: 16 << 10, Ways: 4, BlockSize: 64})
	for _, tc := range cases {
		r := xrand.New(tc.seed)
		distinct := 3000 + r.Intn(20000)
		hot := 16 + r.Intn(512)
		tr := buildTrace(30000, func(int) stream.Access {
			bn := uint64(r.Intn(distinct))
			if r.Bool(0.5) {
				bn = uint64(r.Intn(hot))
			}
			k := stream.Kind(r.Intn(int(stream.NumKinds)))
			return stream.Access{Addr: bn * 64, Kind: k, Write: r.Bool(0.1)}
		})
		res := SimulateSource(tr, cfg, policy.NewLRU())
		if res.Cycles != tc.cycles || res.DRAM.Reads != tc.reads {
			t.Errorf("seed %d: %d cycles, %d DRAM reads; want %d, %d", tc.seed, res.Cycles, res.DRAM.Reads, tc.cycles, tc.reads)
		}
	}
}
