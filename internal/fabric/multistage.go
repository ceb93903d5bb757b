package fabric

import (
	"time"

	"mindgap/internal/queue"
	"mindgap/internal/sim"
)

// MultiStage is the event-driven serial server: a processing element that
// handles one item at a time, each costing some processing time, fed by
// one or more optionally bounded input queues served round-robin — the way
// a real dispatcher core polls several shared memory rings (new requests
// from the networker, notifications from the RX core) so that a flood on
// one input cannot starve the other (§3.4.1). Which item it serves next
// depends on arrivals that have not happened yet, so unlike a Stage or a
// Link it cannot compute an exit on entry: every item costs a completion
// event.
//
// Without this fairness a saturating open-loop workload would bury worker
// completion notifications behind an unbounded backlog of new-request
// admissions and throughput would collapse instead of plateauing at the
// stage's service rate.
type MultiStage[T any] struct {
	serial[T]
	qs     []queue.FIFO[T]
	limits []int
	rr     int
	burst  int // items served from one class before switching (min 1)
	inRun  int // items served consecutively from class rr
	busy   bool
	// cur is the item in service. A serial server holds exactly one, so the
	// completion event needs no payload: it reads cur from the receiver,
	// which keeps scheduling allocation-free.
	cur T
}

// NewMultiStage creates a round-robin server with the given number of input
// classes. cost may be nil for a free stage; limits optionally bounds each
// class queue (nil or entries <= 0 mean unbounded).
func NewMultiStage[T any](eng *sim.Engine, name string, classes int, limits []int, cost func(T) time.Duration, done func(T)) *MultiStage[T] {
	if classes <= 0 {
		panic("fabric: multistage needs at least one class")
	}
	if limits != nil && len(limits) != classes {
		panic("fabric: limits length must match class count")
	}
	return &MultiStage[T]{
		serial: newSerial(eng, name, cost, done, multiStageServed[T]),
		qs:     make([]queue.FIFO[T], classes),
		limits: limits,
		burst:  1,
	}
}

// SetBurst makes the server drain up to n items from one class before
// switching to the next — DPDK-style burst polling (rx_burst processes a
// whole batch from one ring). Larger bursts amortize polling in real
// systems but delay the other classes; the Figure 3 burst ablation uses
// this to show how burst processing penalizes small outstanding-request
// limits at high worker counts.
func (s *MultiStage[T]) SetBurst(n int) {
	if n < 1 {
		panic("fabric: burst must be at least 1")
	}
	s.burst = n
}

// Submit offers an item to the given class queue. It reports false (and
// counts a drop) when that class's bounded queue is full.
//
//mindgap:noalloc
func (s *MultiStage[T]) Submit(class int, item T) bool {
	if !s.busy {
		s.busy = true
		s.rr = class
		s.inRun = 1
		s.serve(item)
		return true
	}
	if s.limits != nil && s.limits[class] > 0 && s.qs[class].Len() >= s.limits[class] {
		s.dropped++
		return false
	}
	s.qs[class].Push(item)
	return true
}

// serve processes one item then pulls the next in round-robin class order.
//
//mindgap:noalloc
func (s *MultiStage[T]) serve(item T) {
	s.cur = item
	s.eng.AtE(s.exit(item), s.served, s, nil, 0)
}

// multiStageServed fires when the in-service item's processing time
// elapses.
//
//mindgap:noalloc
func multiStageServed[T any](recv, _ any, _ uint64) {
	s := recv.(*MultiStage[T])
	item := s.cur
	s.done(item)
	s.processed++
	if next, ok := s.next(); ok {
		s.serve(next)
		return
	}
	s.busy = false
	var zero T
	s.cur = zero
}

// next picks the following item: continue the current class while its
// burst allowance lasts, then rotate round-robin.
//
//mindgap:noalloc
func (s *MultiStage[T]) next() (T, bool) {
	n := len(s.qs)
	if s.inRun < s.burst {
		if v, ok := s.qs[s.rr].Pop(); ok {
			s.inRun++
			return v, true
		}
	}
	for i := 1; i <= n; i++ {
		c := (s.rr + i) % n
		if v, ok := s.qs[c].Pop(); ok {
			s.rr = c
			s.inRun = 1
			return v, true
		}
	}
	var zero T
	return zero, false
}

// QueueLen returns the queued item count for one class.
func (s *MultiStage[T]) QueueLen(class int) int { return s.qs[class].Len() }

// TotalQueued returns queued items across all classes.
func (s *MultiStage[T]) TotalQueued() int {
	total := 0
	for i := range s.qs {
		total += s.qs[i].Len()
	}
	return total
}

// Busy reports whether an item is in service.
func (s *MultiStage[T]) Busy() bool { return s.busy }
