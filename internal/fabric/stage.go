package fabric

import (
	"time"

	"mindgap/internal/queue"
	"mindgap/internal/sim"
	"mindgap/internal/telemetry"
)

// Stage is a serial core with a per-item cost and an optional bounded
// input queue, as a typed pipe over Link's server arithmetic: Submit files
// done at the item's exit, one event per item, and items in flight wait in
// a queue.FIFO, front in service, so nothing is boxed.
type Stage[T any] struct {
	serial[T]
	limit int
	items queue.FIFO[T]
}

// NewStage creates a serial server. cost may be nil for a free stage;
// limit <= 0 means an unbounded input queue.
func NewStage[T any](eng *sim.Engine, name string, limit int, cost func(T) time.Duration, done func(T)) *Stage[T] {
	return &Stage[T]{serial: newSerial(eng, name, cost, done, stageServed[T]), limit: limit}
}

// FixedCost adapts a constant processing time to the Stage cost signature.
func FixedCost[T any](d time.Duration) func(T) time.Duration {
	return func(T) time.Duration { return d }
}

// Submit offers an item to the stage. It reports false (and counts a drop)
// if the bounded queue is full.
//
//mindgap:noalloc
func (s *Stage[T]) Submit(item T) bool {
	if s.limit > 0 && s.QueueLen() >= s.limit {
		s.dropped++
		return false
	}
	s.items.Push(item)
	s.eng.AtE(s.exit(item), s.served, s, nil, 0)
	return true
}

// stageServed fires at the front item's exit; the item counts as in
// service until done returns.
//
//mindgap:noalloc
func stageServed[T any](recv, _ any, _ uint64) {
	s := recv.(*Stage[T])
	item, _ := s.items.Peek()
	s.done(item)
	s.items.Pop()
	s.processed++
}

// QueueLen returns the number of items waiting behind the one in service.
func (s *Stage[T]) QueueLen() int { return max(s.items.Len()-1, 0) }

// Busy reports whether an item is in service.
func (s *Stage[T]) Busy() bool { return s.items.Len() > 0 }

// serial is what Stage and MultiStage share: the per-item cost and done
// callback, the server arithmetic, a name and item counts. served is the
// owner's completion event, bound once: materializing a generic function
// value inside a generic method would allocate per event.
type serial[T any] struct {
	eng    *sim.Engine
	cost   func(T) time.Duration
	done   func(T)
	served sim.EventFunc
	server
	name               string
	processed, dropped uint64
}

func newSerial[T any](eng *sim.Engine, name string, cost func(T) time.Duration, done func(T), served sim.EventFunc) serial[T] {
	if done == nil {
		panic("fabric: a stage requires a done callback")
	}
	return serial[T]{eng: eng, name: name, cost: cost, done: done, served: served}
}

// exit admits item to the server now and returns when it leaves.
//
//mindgap:noalloc
func (s *serial[T]) exit(item T) sim.Time {
	var d time.Duration
	if s.cost != nil {
		d = s.cost(item)
	}
	return s.pass(s.eng.Now(), d)
}

// Name returns the diagnostic name.
func (s *serial[T]) Name() string { return s.name }

// Processed returns the number of items fully processed.
func (s *serial[T]) Processed() uint64 { return s.processed }

// Dropped returns the number of items rejected by a bounded queue.
func (s *serial[T]) Dropped() uint64 { return s.dropped }

// RegisterTelemetry exposes the processed-item count on reg under the given
// component label.
func (s *serial[T]) RegisterTelemetry(reg *telemetry.Registry, component string) {
	reg.GaugeFunc(component, "processed", func() float64 { return float64(s.processed) })
}
