package analysis

import (
	"gspc/internal/stream"
)

// ReuseHistogram characterizes a trace's temporal locality: for every
// access that re-touches a block, the *stack distance* (number of
// distinct blocks referenced since the previous touch) is bucketed in
// powers of two. The stack distance directly predicts fully-associative
// LRU behavior — an access hits in a cache of capacity C blocks iff its
// stack distance is below C — making the histogram a capacity-planning
// view of the workload (the characterization behind the paper's choice
// of a multi-megabyte LLC).
type ReuseHistogram struct {
	// Buckets[i] counts re-references with stack distance in
	// [2^i, 2^(i+1)); Buckets[0] covers distances 0 and 1.
	Buckets []int64
	// Cold counts first-touch accesses (infinite distance).
	Cold int64
	// Total is the number of accesses measured.
	Total int64
}

// maxBucketBits bounds the histogram at 2^30 distinct blocks.
const maxBucketBits = 31

// fenwick is a binary indexed tree over trace positions, counting the
// "most recent position of each distinct block" markers. Prefix sums
// give the number of distinct blocks touched since any past position in
// O(log n).
type fenwick struct {
	tree []int64
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int64, n+1)} }

func (f *fenwick) add(i, delta int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += int64(delta)
	}
}

// sum returns the total of positions [0, i].
func (f *fenwick) sum(i int) int64 {
	var s int64
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// StackDistances computes the LRU stack distance of every access in the
// trace (block granularity, 64-byte blocks by default via blockShift).
// The result slice parallels the trace; first touches get -1. Runs in
// O(n log n) time and O(n) space.
func StackDistances(tr *stream.Trace, blockShift uint) []int64 {
	addrs, _ := tr.Records()
	out := make([]int64, len(addrs))
	last := make(map[uint64]int, len(addrs)/4+1)
	fw := newFenwick(len(addrs))
	for i, addr := range addrs {
		bn := addr >> blockShift
		if j, ok := last[bn]; ok {
			// Distinct blocks touched in (j, i): those whose marker sits
			// after position j.
			out[i] = fw.sum(len(addrs)-1) - fw.sum(j)
			fw.add(j, -1)
		} else {
			out[i] = -1
		}
		fw.add(i, 1)
		last[bn] = i
	}
	return out
}

// NewReuseHistogram builds the power-of-two histogram of a trace's stack
// distances, optionally restricted to one stream kind (pass
// stream.NumKinds for all streams).
func NewReuseHistogram(tr *stream.Trace, blockShift uint, only stream.Kind) *ReuseHistogram {
	h := &ReuseHistogram{Buckets: make([]int64, maxBucketBits)}
	for i, d := range StackDistances(tr, blockShift) {
		if only != stream.NumKinds && tr.KindAt(i) != only {
			continue
		}
		h.Total++
		if d < 0 {
			h.Cold++
			continue
		}
		h.Buckets[bucketOf(d)]++
	}
	return h
}

func bucketOf(d int64) int {
	b := 0
	for d > 1 && b < maxBucketBits-1 {
		d >>= 1
		b++
	}
	return b
}

// HitRateAtCapacity returns the fully-associative LRU hit rate the trace
// would enjoy at a capacity of the given number of blocks: the fraction
// of accesses whose stack distance falls below it. Bucket granularity
// makes this a (slightly pessimistic) lower bound within a bucket.
func (h *ReuseHistogram) HitRateAtCapacity(blocks int64) float64 {
	if h.Total == 0 {
		return 0
	}
	var hits int64
	for b, n := range h.Buckets {
		hi := int64(1) << uint(b+1) // exclusive upper bound of the bucket
		if b == 0 {
			hi = 2
		}
		if hi <= blocks {
			hits += n
		}
	}
	return float64(hits) / float64(h.Total)
}

// ColdFraction returns the compulsory-miss fraction.
func (h *ReuseHistogram) ColdFraction() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Cold) / float64(h.Total)
}

// MedianDistance returns the median finite stack distance (bucket upper
// bound), or -1 when no access has a finite distance.
func (h *ReuseHistogram) MedianDistance() int64 {
	var finite int64
	for _, n := range h.Buckets {
		finite += n
	}
	if finite == 0 {
		return -1
	}
	var seen int64
	for b, n := range h.Buckets {
		seen += n
		if seen*2 >= finite {
			return int64(1) << uint(b+1)
		}
	}
	return int64(1) << maxBucketBits
}
