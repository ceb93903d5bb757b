package sim

import (
	"math/rand/v2"
	"testing"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New()
	var fired Time
	e.After(5*time.Microsecond, func() { fired = e.Now() })
	e.Run()
	if fired != Time(5000) {
		t.Fatalf("event fired at %v, want 5µs", fired)
	}
	if e.Now() != Time(5000) {
		t.Fatalf("Now() = %v after run, want 5µs", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.After(30*time.Nanosecond, func() { order = append(order, 3) })
	e.After(10*time.Nanosecond, func() { order = append(order, 1) })
	e.After(20*time.Nanosecond, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(Time(42), func() { order = append(order, i) })
	}
	e.Run()
	if len(order) != 100 {
		t.Fatalf("fired %d events, want 100", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	e.After(time.Microsecond, func() {
		hits = append(hits, e.Now())
		e.After(time.Microsecond, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != Time(1000) || hits[1] != Time(2000) {
		t.Fatalf("hits = %v, want [1µs 2µs]", hits)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.After(time.Millisecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(Time(1), func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	e.After(-time.Nanosecond, func() {})
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond} {
		d := d
		e.After(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(Time(2000))
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (boundary inclusive)", len(fired))
	}
	if e.Now() != Time(2000) {
		t.Fatalf("Now() = %v, want 2µs", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(fired))
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	e := New()
	e.RunUntil(Time(12345))
	if e.Now() != Time(12345) {
		t.Fatalf("Now() = %v, want 12345", e.Now())
	}
}

func TestHaltStopsRun(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(time.Duration(i)*time.Nanosecond, func() {
			count++
			if count == 4 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Fatalf("count = %d, want 4 (halt should stop run)", count)
	}
	if !e.Halted() {
		t.Fatal("Halted() = false after Halt")
	}
	e.Resume()
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

// armTimer arms the closure fn d from now into a fresh handle.
func armTimer(e *Engine, d time.Duration, fn func()) *Timer {
	tm := new(Timer)
	e.ArmAfterE(tm, d, runClosure, fn, nil, 0)
	return tm
}

// TestArmOverPendingTimerPanics: the one way to a cancellable event takes
// the handle from its caller, and refuses to overwrite a live one — the
// only handle that could stop that event.
func TestArmOverPendingTimerPanics(t *testing.T) {
	e := New()
	tm := armTimer(e, time.Microsecond, func() {})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-arming a pending timer did not panic")
			}
		}()
		e.ArmAfterE(tm, time.Microsecond, runClosure, func() {}, nil, 0)
	}()
	e.Run()
	if e.ArmAfterE(tm, 0, runClosure, func() {}, nil, 0); !tm.Pending() {
		t.Fatal("a fired handle did not re-arm")
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := false
	tm := armTimer(e, time.Microsecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer not pending after creation")
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer still fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New()
	tm := armTimer(e, time.Microsecond, func() {})
	e.Run()
	if tm.Pending() {
		t.Fatal("timer pending after firing")
	}
	if tm.Stop() {
		t.Fatal("Stop() = true after fire, want false")
	}
}

func TestTimerDeadline(t *testing.T) {
	e := New()
	tm := armTimer(e, 7*time.Microsecond, func() {})
	if got := tm.Deadline(); got != Time(7000) {
		t.Fatalf("Deadline() = %v, want 7µs", got)
	}
	tm.Stop()
	if got := tm.Deadline(); got != 0 {
		t.Fatalf("Deadline() after stop = %v, want 0", got)
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Fatal("nil timer Stop() = true")
	}
	var tm2 Timer
	if tm2.Stop() || tm2.Pending() {
		t.Fatal("zero timer is not inert")
	}
}

// TestHeapRandomized drains a large random schedule and verifies global
// time ordering plus FIFO within equal timestamps, with interleaved
// cancellations exercising heap removal from interior positions.
func TestHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	e := New()
	type rec struct {
		at  Time
		seq int
	}
	var fired []rec
	var timers []*Timer
	seq := 0
	for i := 0; i < 5000; i++ {
		at := Time(rng.Int64N(1000)) // dense timestamps force ties
		s := seq
		seq++
		timers = append(timers, armTimer(e, time.Duration(at), func() {
			fired = append(fired, rec{at, s})
		}))
	}
	// Cancel a third of them.
	cancelled := 0
	for i := 0; i < len(timers); i += 3 {
		if timers[i].Stop() {
			cancelled++
		}
	}
	e.Run()
	if len(fired) != 5000-cancelled {
		t.Fatalf("fired %d, want %d", len(fired), 5000-cancelled)
	}
	for i := 1; i < len(fired); i++ {
		prev, cur := fired[i-1], fired[i]
		if cur.at < prev.at {
			t.Fatalf("time order violated at %d: %v after %v", i, cur.at, prev.at)
		}
		if cur.at == prev.at && cur.seq < prev.seq {
			t.Fatalf("FIFO violated at %d: seq %d after %d", i, cur.seq, prev.seq)
		}
	}
}

func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	// The engine recycles event structs. A Timer whose event already fired
	// must not be able to cancel an unrelated later event that reuses the
	// same struct.
	e := New()
	tm := armTimer(e, time.Nanosecond, func() {})
	e.Run() // fires; the event struct returns to the free list
	fired := false
	e.After(time.Nanosecond, func() { fired = true }) // likely reuses it
	if tm.Stop() {
		t.Fatal("stale timer Stop() = true")
	}
	if tm.Pending() {
		t.Fatal("stale timer reports pending")
	}
	e.Run()
	if !fired {
		t.Fatal("stale timer cancelled a recycled event")
	}
}

func TestTimerDuringOwnCallback(t *testing.T) {
	// Stop() from inside the timer's own callback must report false — the
	// event has already fired.
	e := New()
	var tm *Timer
	tm = armTimer(e, time.Nanosecond, func() {
		if tm.Stop() {
			t.Fatal("Stop() = true inside own callback")
		}
	})
	e.Run()
}

func TestExecutedCount(t *testing.T) {
	e := New()
	for i := 0; i < 17; i++ {
		e.After(time.Duration(i)*time.Nanosecond, func() {})
	}
	e.Run()
	if e.Executed() != 17 {
		t.Fatalf("Executed() = %d, want 17", e.Executed())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1000)
	b := a.Add(500 * time.Nanosecond)
	if b != Time(1500) {
		t.Fatalf("Add = %v, want 1500", b)
	}
	if b.Sub(a) != 500*time.Nanosecond {
		t.Fatalf("Sub = %v, want 500ns", b.Sub(a))
	}
	if a.String() != "1µs" {
		t.Fatalf("String = %q, want 1µs", a.String())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%64)*time.Nanosecond, func() {})
		if e.Pending() > 1024 {
			e.Run()
		}
	}
	e.Run()
}
