// Package gpu is the detailed timing simulator of Section 4: a GPU with
// 96 shader cores x 8 thread contexts (768 threads), twelve fixed-
// function texture samplers, a four-banked 8 MB 16-way LLC with a
// 20-cycle load-to-use latency, and a dual-channel DDR3 memory system.
//
// The model is event-driven. The frame's LLC access trace is partitioned
// among the thread contexts in interleaved chunks (screen-space tiles are
// distributed over cores the same way); each thread alternates between
// shading work (a per-stream compute gap, scaled by the core's issue
// share) and memory accesses. Loads block the issuing thread until the
// banked LLC — and on a miss, DRAM — returns data; stores retire into the
// memory system without blocking. Rendering performance is the wall-clock
// cycle count to drain all threads, reported as frames per second.
//
// The model captures the two mechanisms the paper's performance results
// rest on: fast thread switching partially hides memory latency (so only
// substantial LLC miss savings become speedups), and the LLC is far more
// bandwidth-efficient than DRAM (so miss savings relieve the DRAM bus,
// which is the common bottleneck).
package gpu

import (
	"fmt"
	"math/bits"

	"gspc/internal/cachesim"
	"gspc/internal/dram"
	"gspc/internal/stream"
	"gspc/internal/telemetry"
)

// Config describes the simulated GPU.
type Config struct {
	// Cores and ThreadsPerCore size the shader array (96 x 8 baseline;
	// the Figure 17 sensitivity study uses 64 x 8).
	Cores          int
	ThreadsPerCore int
	// IssueWidth is the number of thread instructions a core issues per
	// cycle (two SIMD pipelines per core in the paper).
	IssueWidth int
	// Samplers is the number of fixed-function texture sampler units.
	Samplers int
	// SamplerCycles is the sampler pipeline occupancy per LLC texture
	// request (front-end filtering means each LLC request stands for a
	// batch of texel fetches).
	SamplerCycles int
	// ClockGHz is the shader/sampler clock (1.6 GHz).
	ClockGHz float64

	// LLCGeom is the last-level cache organization.
	LLCGeom cachesim.Geometry
	// LLCBanks and LLCLatency describe the banked LLC pipeline: one
	// access per bank per cycle, LLCLatency cycles load-to-use.
	LLCBanks   int
	LLCLatency int
	// UncachedDisplay bypasses the LLC for the display stream (UCD).
	UncachedDisplay bool

	// DRAM is the memory system configuration; its GPUClockGHz is
	// overridden with ClockGHz.
	DRAM dram.Config

	// ChunkSize is the number of consecutive trace accesses bound to one
	// thread before work distribution moves to the next thread — the
	// screen-tile granularity of the rasterizer's core assignment.
	ChunkSize int

	// ComputeGap is the shading work in thread-cycles preceding each
	// memory access, per stream kind. Zero entries fall back to
	// DefaultComputeGap.
	ComputeGap [stream.NumKinds]int
}

// DefaultComputeGap is the per-stream shading cost in thread cycles per
// LLC access. Each LLC access stands for many absorbed render-cache hits,
// so these are large: a texture LLC request amortizes the filtering and
// shading math of dozens of pixels.
var DefaultComputeGap = [stream.NumKinds]int{
	stream.Vertex:  320,
	stream.HiZ:     160,
	stream.Z:       200,
	stream.Stencil: 160,
	stream.RT:      260,
	stream.Texture: 420,
	stream.Display: 80,
	stream.Other:   200,
}

// DefaultConfig returns the paper's baseline GPU with the given LLC
// policy geometry.
func DefaultConfig(geom cachesim.Geometry) Config {
	return Config{
		Cores:          96,
		ThreadsPerCore: 8,
		IssueWidth:     2,
		Samplers:       12,
		SamplerCycles:  4,
		ClockGHz:       1.6,
		LLCGeom:        geom,
		LLCBanks:       4,
		LLCLatency:     20,
		DRAM:           dram.DefaultConfig(),
		ChunkSize:      64,
	}
}

// Result reports one simulated frame.
type Result struct {
	Cycles int64
	// FPS is frames per second at the configured clock for this frame.
	FPS  float64
	LLC  cachesim.Stats
	DRAM dram.Stats
	// Accesses is the number of trace accesses the model executed.
	Accesses int64
}

// event wakes one thread at cycle t. seq is unique per event, so the
// (t, seq) order is total and the simulation deterministic.
type event struct {
	t      int64
	thread int32
	seq    int64
}

func (e event) before(o event) bool {
	return e.t < o.t || (e.t == o.t && e.seq < o.seq)
}

// eventQueue is a binary min-heap of events on (t, seq). The timing loop
// only ever looks at the earliest event and then either retires it (pop)
// or reschedules its thread later (replaceTop, one sift down instead of a
// pop and a push). Events are stored by value, so nothing is allocated
// after the queue is built.
type eventQueue []event

// init establishes the heap order over arbitrarily ordered events.
func (q eventQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if r := m + 1; r < n && q[r].before(q[m]) {
			m = r
		}
		if !q[m].before(q[i]) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// pop removes the earliest event, q[0].
func (q *eventQueue) pop() {
	n := len(*q) - 1
	(*q)[0] = (*q)[n]
	*q = (*q)[:n]
	q.down(0)
}

// replaceTop replaces the earliest event with e.
func (q eventQueue) replaceTop(e event) {
	q[0] = e
	q.down(0)
}

// mshrReclaimAt is the live-entry count above which an insert reclaims
// every completed fill (done <= now) from the MSHR table.
const mshrReclaimAt = 4096

// mshrTable maps a block number to the completion cycle of its demand
// fill. It is open-addressed with linear probing; a key is stored as
// block+1 so that a zero key marks an empty slot. The slot count is a
// power of two and doubles whenever the table passes 3/4 full, so it has
// no hard cap.
type mshrTable struct {
	slots []mshrSlot
	spare []mshrSlot // empty reclaim target, swapped with slots
	live  int
	shift uint // 64 - log2(len(slots))
}

type mshrSlot struct {
	key  uint64
	done int64
}

// newMSHRTable returns an empty table of the given slot count, which must
// be a power of two.
func newMSHRTable(slots int) *mshrTable {
	m := &mshrTable{}
	m.resize(slots)
	return m
}

func (m *mshrTable) resize(slots int) {
	m.slots = make([]mshrSlot, slots)
	m.spare = make([]mshrSlot, slots)
	m.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// slot returns the index holding key, or the empty slot where it belongs.
func (m *mshrTable) slot(key uint64) int {
	mask := len(m.slots) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> m.shift)
	for m.slots[i].key != 0 && m.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns the fill completion recorded for block bn.
func (m *mshrTable) get(bn uint64) (int64, bool) {
	s := m.slots[m.slot(bn+1)]
	return s.done, s.key != 0
}

// put records done as the fill completion of block bn.
func (m *mshrTable) put(bn uint64, done int64) {
	i := m.slot(bn + 1)
	if m.slots[i].key == 0 {
		if 4*(m.live+1) > 3*len(m.slots) {
			m.grow()
			i = m.slot(bn + 1)
		}
		m.live++
	}
	m.slots[i] = mshrSlot{key: bn + 1, done: done}
}

// grow doubles the slot count, rehashing every entry.
func (m *mshrTable) grow() {
	old := m.slots
	m.resize(2 * len(old))
	for _, s := range old {
		if s.key != 0 {
			m.slots[m.slot(s.key)] = s
		}
	}
}

// reclaim drops every entry whose fill completed by now, rehashing the
// survivors into the spare slots.
func (m *mshrTable) reclaim(now int64) {
	old := m.slots
	m.slots, m.spare = m.spare, old
	m.live = 0
	for _, s := range old {
		if s.key == 0 || s.done <= now {
			continue
		}
		m.slots[m.slot(s.key)] = s
		m.live++
	}
	clear(old)
}

// SimulateSource renders one frame (its LLC access trace) on the
// configured GPU with the given LLC replacement policy and returns the
// timing result. The policy's state is reset by the embedded cache
// model. Threads read the trace columns positionally (chunk-interleaved),
// so the trace is only ever indexed — never mutated — and one trace from
// the shared frame-trace cache can feed any number of concurrent
// simulations.
func SimulateSource(tr *stream.Trace, cfg Config, pol cachesim.Policy) Result {
	if cfg.Cores <= 0 || cfg.ThreadsPerCore <= 0 {
		panic(fmt.Sprintf("gpu: invalid shader array %dx%d", cfg.Cores, cfg.ThreadsPerCore))
	}
	if cfg.LLCBanks <= 0 {
		panic(fmt.Sprintf("gpu: invalid LLC bank count %d", cfg.LLCBanks))
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 64
	}
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = 2
	}
	for k := range cfg.ComputeGap {
		if cfg.ComputeGap[k] == 0 {
			cfg.ComputeGap[k] = DefaultComputeGap[k]
		}
	}
	cfg.DRAM.GPUClockGHz = cfg.ClockGHz

	mem := dram.New(cfg.DRAM)
	llc := cachesim.New(cfg.LLCGeom, pol)
	if cfg.UncachedDisplay {
		llc.SetBypass(stream.Display, true)
	}

	// MSHRs: outstanding demand fills indexed by block number. A thread
	// hitting a block whose fill is still in flight waits for that fill
	// instead of receiving data at the LLC pipeline latency; a second
	// miss merges rather than issuing a duplicate DRAM fetch. Completed
	// entries are reclaimed all at once by the insert that takes the
	// table past mshrReclaimAt live entries, against that access's now.
	// now is not monotonic (events pop in wake order, but the shading gap
	// before each access differs by stream), so reclaiming at any other
	// moment would drop a different set of entries and change later
	// merges and cycle counts.
	mshr := newMSHRTable(2 * mshrReclaimAt)

	// The LLC's downstream is DRAM: demand fetches and writebacks are
	// issued at the simulation time of the access that triggered them.
	var now int64
	var lastFill int64 // completion of the most recent demand fetch
	llc.Downstream = stream.SinkFunc(func(a stream.Access) {
		if a.Write {
			mem.Access(a.Addr, now, true)
			return
		}
		bn := a.Addr >> 6
		if done, ok := mshr.get(bn); ok && done > now {
			lastFill = done // merge with the in-flight fill
			return
		}
		done := mem.Access(a.Addr, now, false)
		mshr.put(bn, done)
		lastFill = done
		if mshr.live > mshrReclaimAt {
			mshr.reclaim(now)
		}
	})

	addrs, meta := tr.Records()
	nThreads := cfg.Cores * cfg.ThreadsPerCore
	nChunks := (len(addrs) + cfg.ChunkSize - 1) / cfg.ChunkSize

	// Thread k owns chunks k, k+T, k+2T, ... ; pos tracks each thread's
	// place within its current chunk.
	chunkOf := make([]int, nThreads) // current chunk ordinal per thread
	idx := make([]int, nThreads)     // offset within current chunk

	// Shading rate: with all thread contexts busy, a core advances
	// IssueWidth threads per cycle, so a gap of g thread-cycles costs
	// g * ThreadsPerCore / IssueWidth wall cycles.
	gapScale := cfg.ThreadsPerCore / cfg.IssueWidth
	if gapScale < 1 {
		gapScale = 1
	}

	bankFree := make([]int64, cfg.LLCBanks)
	samplerFree := make([]int64, max(1, cfg.Samplers))

	q := make(eventQueue, 0, nThreads)
	var seq int64
	for t := 0; t < nThreads && t < nChunks; t++ {
		chunkOf[t] = t
		q = append(q, event{t: 0, thread: int32(t), seq: seq})
		seq++
	}
	q.init()

	var cycles int64
	var accesses int64
	for len(q) > 0 {
		ev := q[0]
		th := int(ev.thread)

		// Fetch the thread's next access, advancing through its chunks.
		pos := -1
		for chunkOf[th] < nChunks {
			p := chunkOf[th]*cfg.ChunkSize + idx[th]
			if idx[th] < cfg.ChunkSize && p < len(addrs) {
				pos = p
				break
			}
			chunkOf[th] += nThreads
			idx[th] = 0
		}
		if pos < 0 {
			if ev.t > cycles {
				cycles = ev.t
			}
			q.pop() // thread retires
			continue
		}
		k, w := stream.UnpackMeta(meta[pos])
		a := stream.Access{Addr: addrs[pos], Seq: int64(pos), Kind: k, Write: w}
		idx[th]++
		accesses++

		// Shading work before the access.
		t := ev.t + int64(cfg.ComputeGap[a.Kind]*gapScale)

		// Texture requests flow through a sampler unit.
		if a.Kind == stream.Texture && cfg.Samplers > 0 {
			s := th % cfg.Samplers
			if samplerFree[s] > t {
				t = samplerFree[s]
			}
			samplerFree[s] = t + int64(cfg.SamplerCycles)
			t += int64(cfg.SamplerCycles)
		}

		// Banked LLC pipeline: one access per bank per cycle.
		b := llc.SetIndex(a.Addr) * cfg.LLCBanks / llc.Sets()
		if b >= cfg.LLCBanks {
			b = cfg.LLCBanks - 1
		}
		if bankFree[b] > t {
			t = bankFree[b]
		}
		bankFree[b] = t + 1

		now = t + int64(cfg.LLCLatency)
		lastFill = 0
		hit := llc.Access(a)
		done := t + int64(cfg.LLCLatency)
		if lastFill > done {
			done = lastFill // miss: wait for the DRAM fill
		}
		if hit && !a.Write {
			// A hit on a block whose demand fill is still in flight
			// (secondary miss) delivers data when the fill lands.
			if fd, ok := mshr.get(a.Addr >> 6); ok && fd > done {
				done = fd
			}
		}

		resume := done
		if a.Write {
			// Stores retire asynchronously; the thread only pays the
			// issue slot.
			resume = t + 1
		}
		if done > cycles {
			cycles = done
		}
		q.replaceTop(event{t: resume, thread: int32(th), seq: seq})
		seq++
	}

	fps := 0.0
	if cycles > 0 {
		fps = cfg.ClockGHz * 1e9 / float64(cycles)
	}
	// Fold this simulation's LLC and DRAM outcomes into the process-wide
	// telemetry counters — once per simulation, never per access.
	for _, k := range stream.Kinds() {
		telemetry.RecordLLCStream(k.String(), llc.Stats.KindAccesses[k], llc.Stats.KindHits[k])
	}
	telemetry.RecordDRAM(mem.Stats.Reads, mem.Stats.Writes, mem.Stats.RowHits, mem.Stats.RowMisses, mem.Stats.RowConflicts)
	return Result{
		Cycles:   cycles,
		FPS:      fps,
		LLC:      llc.Stats,
		DRAM:     mem.Stats,
		Accesses: accesses,
	}
}
