// Package sim provides a deterministic discrete-event simulation engine
// with nanosecond resolution.
//
// The engine is the substrate every hardware model in this repository runs
// on: NIC ports, SmartNIC ARM cores, host worker cores, and communication
// links are all components that schedule events on a shared Engine.
// Determinism is guaranteed by a stable tie-break: events scheduled for the
// same instant fire in the order they were scheduled, so a simulation with a
// fixed seed always produces identical results.
//
// Models schedule through the typed form (AtE, AfterE, ArmAfterE): a
// plain function plus a receiver, an object pointer and a scalar argument.
// Because the function is not a closure and pointers stored in interfaces
// do not allocate, a typed schedule performs zero heap allocations in
// steady state. The closure form (At, After, and fabric's Link.Send) takes
// a func() and allocates; it is a convenience for tests and has no
// production caller. A cancellable event is always armed into a
// caller-owned Timer (ArmAfterE).
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an instant in simulated time, expressed in nanoseconds since the
// start of the simulation.
type Time int64

// MaxTime is the largest representable simulation instant.
const MaxTime = Time(math.MaxInt64)

// Add returns the instant d after t. Negative durations are allowed and move
// the instant backwards.
//
//mindgap:noalloc
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the instant as a duration since the epoch, e.g. "1.5ms".
func (t Time) String() string { return time.Duration(t).String() }

// EventFunc is the typed event callback. recv is the scheduling component
// (typically a struct pointer), obj an optional object flowing through the
// event (a request, a frame payload), and arg an optional scalar. All three
// are stored inline in the event, so a typed schedule allocates nothing.
type EventFunc func(recv, obj any, arg uint64)

// event is a pending callback. next/prev link it into its wheel slot's list,
// which holds the slot's events in the order they were scheduled (see
// wheel.go), so cancellation (Timer.Stop) unlinks it in O(1). gen guards
// recycled events against stale Timer handles: each reuse increments it.
type event struct {
	at         Time
	fn         EventFunc
	recv       any
	obj        any
	arg        uint64
	next, prev *event
	gen        uint32
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New. Engine is not safe for concurrent use: a simulation is a single
// logical thread of control, which is what makes it reproducible.
//
// Internally the engine is a hierarchical timing wheel (see wheel.go) whose
// levels cover every representable Time; it preserves the exact (time, seq)
// total order of a binary-heap scheduler — seq being the order events were
// scheduled in — while making schedule/fire O(1) in steady state.
type Engine struct {
	now Time

	// base is the wheel origin: the instant whose bits index the wheel
	// levels. Invariant: base <= now whenever user code can run, and every
	// pending event has at >= base.
	base  Time
	sum0  uint64                  // bit w: occ[w] != 0, for level 0's 64 words
	occ   [wheelHeads / 64]uint64 // slot occupancy, one bit per heads entry
	heads [wheelHeads]*event      // each slot list's oldest event, nil if empty

	free      []*event // recycled events (simulations schedule millions)
	pending   int      // scheduled, not yet fired or cancelled
	highWater int      // max pending ever observed; sizes the free list
	halted    bool
	stepped   uint64 // number of events executed
}

// New returns an engine positioned at time zero with an empty event queue.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled (not yet fired) events.
func (e *Engine) Pending() int { return e.pending }

// Executed reports how many event callbacks have run.
func (e *Engine) Executed() uint64 { return e.stepped }

// HighWater reports the maximum number of simultaneously pending events
// observed so far; it bounds the event free list (see recycle).
func (e *Engine) HighWater() int { return e.highWater }

// At schedules fn to run at the absolute instant t. Scheduling in the past
// panics: a component that needs to "run now" should schedule at e.Now().
// This closure form allocates; models use AtE.
func (e *Engine) At(t Time, fn func()) {
	e.AtE(t, runClosure, fn, nil, 0)
}

// runClosure adapts the closure API onto the typed event path.
func runClosure(recv, _ any, _ uint64) { recv.(func())() }

// AtE schedules the typed event fn(recv, obj, arg) at the absolute instant
// t. Scheduling in the past panics. AtE performs no heap allocation in
// steady state (once the event free list is warm).
//
//mindgap:noalloc
func (e *Engine) AtE(t Time, fn EventFunc, recv, obj any, arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v which is before now %v", t, e.now))
	}
	e.schedule(t, fn, recv, obj, arg)
}

// After schedules fn to run d after the current instant. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn)
}

// AfterE schedules the typed event fn(recv, obj, arg) to run d after the
// current instant. Negative d panics.
//
//mindgap:noalloc
func (e *Engine) AfterE(d time.Duration, fn EventFunc, recv, obj any, arg uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtE(e.now.Add(d), fn, recv, obj, arg)
}

// schedule files the typed event fn(recv, obj, arg) at t — taken from the
// free list, or from the heap until the list is warm — and maintains the
// pending high-water mark.
func (e *Engine) schedule(t Time, fn EventFunc, recv, obj any, arg uint64) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.fn, ev.recv, ev.obj, ev.arg = t, fn, recv, obj, arg
	e.pending++
	e.highWater = max(e.highWater, e.pending)
	e.file(ev)
	return ev
}

// recycle returns a finished or cancelled event to the free list,
// invalidating any Timer handle that still points at it. The free list is
// capped at the measured high-water mark of concurrently pending events: a
// steady-state simulation can never consume recycled events faster than it
// fires them, so the pool that sufficed at peak backlog suffices forever
// after, and the cap adapts to the workload instead of a magic constant.
//
//mindgap:noalloc
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.recv = nil
	ev.obj = nil
	if len(e.free) < e.highWater {
		e.free = append(e.free, ev)
	}
}

// Timer is a handle to a scheduled event that can be cancelled before it
// fires. The zero value is an inert, already-stopped timer.
type Timer struct {
	e   *Engine
	ev  *event
	gen uint32
}

// ArmAfterE schedules the typed event fn(recv, obj, arg) to run d from now
// and points the caller-owned handle tm at it, so a component re-arms one
// timer per work item (a core's slice/completion timer) without allocating.
// tm must not be pending — arming over a live timer would lose the only
// handle that can stop it — but stale handles from fired or stopped events
// are fine.
//
//mindgap:noalloc
func (e *Engine) ArmAfterE(tm *Timer, d time.Duration, fn EventFunc, recv, obj any, arg uint64) {
	if tm.Pending() {
		panic("sim: ArmAfterE on a pending timer")
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	at := e.now.Add(d)
	if at < e.now {
		// Deadline overflowed Time. The wheel's total order rests on every
		// pending event being >= the wheel origin, so a wrapped deadline
		// must not enter the schedule.
		panic(fmt.Sprintf("sim: delay %v from %v overflows simulated time", d, e.now))
	}
	ev := e.schedule(at, fn, recv, obj, arg)
	tm.e, tm.ev, tm.gen = e, ev, ev.gen
}

// Pending reports whether the timer has yet to fire: whether the handle
// still refers to its original, pending event. An event leaves the
// schedule only by firing or by Stop, and both recycle it, which bumps its
// generation.
//
//mindgap:noalloc
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen
}

// Stop cancels the timer. It reports whether the timer was still pending:
// false means the event already fired (or Stop was already called).
//
//mindgap:noalloc
func (t *Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	e, ev := t.e, t.ev
	e.unlink(e.slotOf(ev.at), ev)
	e.pending--
	e.recycle(ev)
	t.ev = nil
	return true
}

// Deadline returns the instant the timer will fire. It is only meaningful
// while Pending reports true.
func (t *Timer) Deadline() Time {
	if !t.Pending() {
		return 0
	}
	return t.ev.at
}

// Step executes the single earliest pending event. It reports false when
// the queue is empty or the engine has been halted.
//
//mindgap:noalloc
func (e *Engine) Step() bool {
	if e.halted {
		return false
	}
	ev := e.next()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.pending--
	e.stepped++
	fn, recv, obj, arg := ev.fn, ev.recv, ev.obj, ev.arg
	e.recycle(ev)
	fn(recv, obj, arg)
	return true
}

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled exactly at t do fire.
func (e *Engine) RunUntil(t Time) {
	for !e.halted {
		next, ok := e.peekTime()
		if !ok || next > t {
			break
		}
		e.Step()
	}
	if !e.halted && e.now < t {
		e.now = t
	}
}

// Halt stops Run/RunUntil after the currently executing event returns.
// Pending events remain queued; Resume re-enables execution.
func (e *Engine) Halt() { e.halted = true }

// Resume clears a previous Halt.
func (e *Engine) Resume() { e.halted = false }

// Halted reports whether the engine is halted.
func (e *Engine) Halted() bool { return e.halted }
