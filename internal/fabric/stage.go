package fabric

import (
	"time"

	"mindgap/internal/sim"
)

// Stage models a serial processing element — a CPU core (or pipeline stage
// on one) that handles one item at a time, each costing some processing
// time, with an optional bounded input queue. The SmartNIC ARM dispatcher
// cores, the vanilla Shinjuku networker and dispatcher threads, and the
// hardware scheduler of the ideal NIC are all Stages with different costs.
//
// The queueing behaviour of Stages — not just their raw cost — is what
// reproduces the paper's Figure 3 and Figure 6: near saturation, waiting
// time at the ARM stages inflates the dispatch round trip well beyond the
// 2.56 µs wire latency.
//
// A Stage is the class-0 view of a one-class MultiStage: the server, its
// counters, busy tracking, fault stretch and telemetry are MultiStage's;
// only the class argument of Submit and QueueLen disappears.
type Stage[T any] struct{ *MultiStage[T] }

// NewStage creates a serial server. cost may be nil for a free stage;
// limit <= 0 means an unbounded input queue.
func NewStage[T any](eng *sim.Engine, name string, limit int, cost func(T) time.Duration, done func(T)) *Stage[T] {
	return &Stage[T]{NewMultiStage(eng, name, 1, []int{limit}, cost, done)}
}

// FixedCost adapts a constant processing time to the Stage cost signature.
func FixedCost[T any](d time.Duration) func(T) time.Duration {
	return func(T) time.Duration { return d }
}

// Submit offers an item to the stage. It reports false (and counts a drop)
// if the bounded queue is full.
//
//mindgap:noalloc
func (s *Stage[T]) Submit(item T) bool { return s.MultiStage.Submit(0, item) }

// QueueLen returns the number of items waiting (excluding the one in
// service).
func (s *Stage[T]) QueueLen() int { return s.MultiStage.QueueLen(0) }
