// Package queue provides the queue structures used across the scheduling
// systems: an unbounded FIFO (the centralized task queue of Shinjuku and
// Shinjuku-Offload, §3.4.1) and a bounded ring (worker RX queues, where the
// dispatcher stashes outstanding requests — the queuing optimization of
// §3.4.5).
package queue

// FIFO is an unbounded first-in-first-out queue with amortized O(1)
// operations. The zero value is an empty queue ready for use.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
//
//mindgap:noalloc
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v to the tail.
//
//mindgap:noalloc
func (q *FIFO[T]) Push(v T) {
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		var zero T
		for i := n; i < len(q.items); i++ {
			q.items[i] = zero
		}
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the head. ok is false on an empty queue.
//
//mindgap:noalloc
func (q *FIFO[T]) Pop() (v T, ok bool) {
	var zero T
	if q.Len() == 0 {
		return zero, false
	}
	v = q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Peek returns the head without removing it.
//
//mindgap:noalloc
func (q *FIFO[T]) Peek() (v T, ok bool) {
	var zero T
	if q.Len() == 0 {
		return zero, false
	}
	return q.items[q.head], true
}

// Do calls fn for each queued item, head first, without removing any —
// ground-truth backlog scans (the attribution layer's decision audit)
// read per-core queues this way.
func (q *FIFO[T]) Do(fn func(T)) {
	for i := q.head; i < len(q.items); i++ {
		fn(q.items[i])
	}
}

// PopTail removes and returns the tail — used by work-stealing baselines
// (ZygOS steals from the far end of a sibling's queue).
//
//mindgap:noalloc
func (q *FIFO[T]) PopTail() (v T, ok bool) {
	var zero T
	if q.Len() == 0 {
		return zero, false
	}
	last := len(q.items) - 1
	v = q.items[last]
	q.items[last] = zero
	q.items = q.items[:last]
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Ring is a bounded FIFO ring buffer. The zero value is unusable; call
// NewRing. It models fixed-size hardware queues (NIC RX descriptor rings):
// Push fails when full and the caller decides whether that is backpressure
// or a drop.
type Ring[T any] struct {
	buf   []T
	head  int
	count int
}

// NewRing creates a ring with the given capacity (must be positive).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("queue: ring capacity must be positive")
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Cap returns the ring's fixed capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of items currently queued.
func (r *Ring[T]) Len() int { return r.count }

// Full reports whether Push would fail.
func (r *Ring[T]) Full() bool { return r.count == len(r.buf) }

// Empty reports whether Pop would fail.
func (r *Ring[T]) Empty() bool { return r.count == 0 }

// Push appends v; it reports false if the ring is full.
//
//mindgap:noalloc
func (r *Ring[T]) Push(v T) bool {
	if r.count == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.count)%len(r.buf)] = v
	r.count++
	return true
}

// Pop removes and returns the oldest item.
//
//mindgap:noalloc
func (r *Ring[T]) Pop() (v T, ok bool) {
	var zero T
	if r.count == 0 {
		return zero, false
	}
	v = r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return v, true
}

// Peek returns the oldest item without removing it.
//
//mindgap:noalloc
func (r *Ring[T]) Peek() (v T, ok bool) {
	var zero T
	if r.count == 0 {
		return zero, false
	}
	return r.buf[r.head], true
}

// Do calls fn for each queued item, oldest first, without removing any —
// how a host core inspects its RX descriptor ring to summarize pending
// work for load feedback.
func (r *Ring[T]) Do(fn func(T)) {
	for i := 0; i < r.count; i++ {
		fn(r.buf[(r.head+i)%len(r.buf)])
	}
}
