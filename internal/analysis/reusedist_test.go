package analysis

import (
	"testing"
	"testing/quick"

	"gspc/internal/cachesim"
	"gspc/internal/policy"
	"gspc/internal/stream"
)

func blocksTrace(blocks ...int) *stream.Trace {
	tr := stream.NewTrace(len(blocks))
	for _, b := range blocks {
		tr.Append(stream.Access{Addr: uint64(b) * 64})
	}
	return tr
}

// modTrace is blocksTrace over blocks reduced modulo m.
func modTrace(blocks []uint8, m uint8) *stream.Trace {
	bs := make([]int, len(blocks))
	for i, b := range blocks {
		bs[i] = int(b % m)
	}
	return blocksTrace(bs...)
}

func TestStackDistancesKnown(t *testing.T) {
	// Trace: A B C A B B. Distances: -1 -1 -1 2 2 0.
	tr := blocksTrace(1, 2, 3, 1, 2, 2)
	got := StackDistances(tr, 6)
	want := []int64{-1, -1, -1, 2, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// bruteStackDistance counts distinct blocks between touches directly.
func bruteStackDistance(tr *stream.Trace, shift uint) []int64 {
	out := make([]int64, tr.Len())
	for i := range out {
		out[i] = -1
		bn := tr.Addr(i) >> shift
		for j := i - 1; j >= 0; j-- {
			if tr.Addr(j)>>shift == bn {
				seen := map[uint64]bool{}
				for k := j + 1; k < i; k++ {
					seen[tr.Addr(k)>>shift] = true
				}
				delete(seen, bn)
				out[i] = int64(len(seen))
				break
			}
		}
	}
	return out
}

func TestStackDistancesProperty(t *testing.T) {
	f := func(blocks []uint8) bool {
		tr := modTrace(blocks, 32)
		got := StackDistances(tr, 6)
		want := bruteStackDistance(tr, 6)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The defining property of stack distances: an access hits in a
// fully-associative LRU cache of capacity C iff its distance < C.
func TestStackDistancePredictsLRUProperty(t *testing.T) {
	f := func(blocks []uint8, cap8 uint8) bool {
		ways := int(cap8%15) + 2
		tr := modTrace(blocks, 64)
		dists := StackDistances(tr, 6)
		// Fully associative LRU = single-set cache.
		c := cachesim.New(cachesim.Geometry{SizeBytes: 64 * ways, Ways: ways, BlockSize: 64}, policy.NewLRU())
		for i := range tr.Len() {
			hit := c.Access(tr.At(i))
			wantHit := dists[i] >= 0 && dists[i] < int64(ways)
			if hit != wantHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReuseHistogram(t *testing.T) {
	tr := blocksTrace(1, 2, 3, 1, 2, 2)
	h := NewReuseHistogram(tr, 6, stream.NumKinds)
	if h.Total != 6 || h.Cold != 3 {
		t.Errorf("total=%d cold=%d", h.Total, h.Cold)
	}
	// Distances 2, 2 -> bucket 1; distance 0 -> bucket 0.
	if h.Buckets[0] != 1 || h.Buckets[1] != 2 {
		t.Errorf("buckets = %v", h.Buckets[:3])
	}
	if h.ColdFraction() != 0.5 {
		t.Errorf("cold fraction = %v", h.ColdFraction())
	}
}

func TestReuseHistogramKindFilter(t *testing.T) {
	tr := stream.Pack([]stream.Access{
		{Addr: 0, Kind: stream.Z},
		{Addr: 0, Kind: stream.Texture},
		{Addr: 0, Kind: stream.Z},
	})
	h := NewReuseHistogram(tr, 6, stream.Z)
	if h.Total != 2 || h.Cold != 1 {
		t.Errorf("filtered histogram total=%d cold=%d", h.Total, h.Cold)
	}
}

func TestHitRateAtCapacity(t *testing.T) {
	// Cyclic trace over 8 blocks, repeated: distances are all 7.
	var blocks []int
	for rep := 0; rep < 4; rep++ {
		for b := 0; b < 8; b++ {
			blocks = append(blocks, b)
		}
	}
	h := NewReuseHistogram(blocksTrace(blocks...), 6, stream.NumKinds)
	// Distance 7 -> bucket 2 ([4,8)); capacity 8 captures it.
	if hr := h.HitRateAtCapacity(8); hr < 0.7 {
		t.Errorf("hit rate at capacity 8 = %v, want ~0.75", hr)
	}
	if hr := h.HitRateAtCapacity(4); hr != 0 {
		t.Errorf("hit rate at capacity 4 = %v, want 0", hr)
	}
}

func TestMedianDistance(t *testing.T) {
	h := NewReuseHistogram(blocksTrace(1, 1, 1, 1), 6, stream.NumKinds)
	if m := h.MedianDistance(); m != 2 {
		t.Errorf("median = %d, want 2 (bucket 0 upper bound)", m)
	}
	empty := NewReuseHistogram(stream.NewTrace(0), 6, stream.NumKinds)
	if empty.MedianDistance() != -1 {
		t.Error("median of empty histogram should be -1")
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1 << 20: 20}
	for d, want := range cases {
		if got := bucketOf(d); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", d, got, want)
		}
	}
}
