package telemetry

// ring is a bounded buffer keeping the newest cap values pushed into
// it — the one rolling window behind the flight recorder, the cluster
// event log and the latency recorder. It never allocates after
// construction; callers provide the locking.
type ring[T any] struct {
	buf []T
	n   int64 // values ever pushed
}

// newRing builds a ring holding the last n (> 0) values.
func newRing[T any](n int) ring[T] { return ring[T]{buf: make([]T, 0, n)} }

// push appends v, overwriting the oldest value once the ring is full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.n%int64(cap(r.buf))] = v
	}
	r.n++
}

// len reports how many values the ring retains.
func (r *ring[T]) len() int { return len(r.buf) }

// at returns the i-th retained value, oldest first.
func (r *ring[T]) at(i int) T {
	return r.buf[(r.n-int64(len(r.buf))+int64(i))%int64(cap(r.buf))]
}

// total reports how many values were ever pushed, including those
// since overwritten.
func (r *ring[T]) total() int64 { return r.n }
