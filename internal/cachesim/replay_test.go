package cachesim

import (
	"context"
	"errors"
	"testing"

	"gspc/internal/stream"
)

func replayTrace(n int) *stream.Trace {
	tr := stream.NewTrace(n)
	for i := range n {
		tr.Append(stream.Access{Addr: uint64(i) * 64, Kind: stream.Texture})
	}
	return tr
}

func TestReplayCompletesWithoutCancellation(t *testing.T) {
	c := New(Geometry{SizeBytes: 16 * 16 * 64, Ways: 16, BlockSize: 64}, &fifoPolicy{})
	tr := replayTrace(10_000)
	if err := ReplaySource(context.Background(), c, tr, 0); err != nil {
		t.Fatalf("ReplaySource: %v", err)
	}
	if c.Stats.Accesses != int64(tr.Len()) {
		t.Errorf("accesses = %d, want %d", c.Stats.Accesses, tr.Len())
	}
}

func TestReplayStopsOnCancelledContext(t *testing.T) {
	c := New(Geometry{SizeBytes: 16 * 16 * 64, Ways: 16, BlockSize: 64}, &fifoPolicy{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := replayTrace(100_000)
	err := ReplaySource(ctx, c, tr, 128)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ReplaySource err = %v, want context.Canceled", err)
	}
	// The first stride window may run before the first poll fires, but a
	// pre-cancelled context must stop the replay at the very first check.
	if c.Stats.Accesses != 0 {
		t.Errorf("accesses after pre-cancelled replay = %d, want 0", c.Stats.Accesses)
	}
}

func TestReplayCancellationLatencyBoundedByStride(t *testing.T) {
	c := New(Geometry{SizeBytes: 16 * 16 * 64, Ways: 16, BlockSize: 64}, &fifoPolicy{})
	tr := replayTrace(100_000)
	const stride = 64
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	// Cancel from inside the replay via an observer: after the first 1000
	// accesses the context is dead, so the replay must stop within one
	// stride of access 1000.
	c.AddObserver(ObserverFunc(func(ev Event) {
		done++
		if done == 1000 {
			cancel()
		}
	}))
	if err := ReplaySource(ctx, c, tr, stride); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReplaySource err = %v, want context.Canceled", err)
	}
	if c.Stats.Accesses > 1000+stride {
		t.Errorf("replay ran %d accesses past cancellation (stride %d)", c.Stats.Accesses-1000, stride)
	}
}
