package sim

import (
	"cmp"
	"container/heap"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// The timing wheel must be observationally identical to a plain binary-heap
// scheduler: same fire order, same timestamps, same Executed(), Pending()
// and HighWater() counts, same Timer.Stop results. refSched below is that
// scheduler, written against container/heap and sharing no code with the
// Engine — the reference implementation these tests compare against.

// refEvent is one reference-scheduler entry. fn is nil once the event has
// fired or been stopped; stopped events stay in the heap until they surface.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// refSched exposes just the calls script drives.
type refSched struct {
	now                Time
	seq, executed      uint64
	pending, highWater int
	q                  refQueue
}

func (r *refSched) after(d time.Duration, fn func()) *refEvent {
	r.seq++
	ev := &refEvent{at: r.now.Add(d), seq: r.seq, fn: fn}
	heap.Push(&r.q, ev)
	r.pending++
	r.highWater = max(r.highWater, r.pending)
	return ev
}

// stop reports whether ev was still pending.
func (r *refSched) stop(ev *refEvent) bool {
	if ev.fn == nil {
		return false
	}
	ev.fn = nil
	r.pending--
	return true
}

// peek returns the earliest live event, discarding stopped ones on the way.
func (r *refSched) peek() *refEvent {
	for len(r.q) > 0 && r.q[0].fn == nil {
		heap.Pop(&r.q)
	}
	if len(r.q) == 0 {
		return nil
	}
	return r.q[0]
}

func (r *refSched) step() bool {
	ev := r.peek()
	if ev == nil {
		return false
	}
	heap.Pop(&r.q)
	r.now = ev.at
	r.pending--
	r.executed++
	fn := ev.fn
	ev.fn = nil
	fn()
	return true
}

func (r *refSched) runUntil(t Time) {
	for ev := r.peek(); ev != nil && ev.at <= t; ev = r.peek() {
		r.step()
	}
	r.now = max(r.now, t)
}

// firing is one observed callback execution.
type firing struct {
	id int
	at Time
}

// side is one scheduler's observation log.
type side struct {
	now func() Time
	log []firing
}

func (s *side) add(id int) { s.log = append(s.log, firing{id, s.now()}) }

// logFire is the typed-API observation callback.
func logFire(recv, _ any, arg uint64) { recv.(*side).add(int(arg)) }

// script interprets data as a deterministic op stream applied identically
// to the wheel engine and the reference scheduler, then verifies the two
// observations match exactly. It exercises: delays across every wheel
// level, same-instant bursts, scheduling at the current instant from inside
// a callback (drain-time insertion), cancellation from any level and from
// the instant being drained, cancel-then-reschedule, partial stepping, and
// RunUntil boundaries — and, for the slot lists' FIFO order and the cascade
// to a slot's minimum: a zero-delay timer stopped at the tail of the list
// being drained, zero-delay chains, current-instant schedules between
// RunUntil probes inside and outside the origin's level-0 window, and
// bursts that share a far-level slot with tied and distinct instants.
func script(t *testing.T, data []byte) {
	t.Helper()
	eng, ref := New(), &refSched{}
	wheel := &side{now: eng.Now}
	refs := &side{now: func() Time { return ref.now }}

	var timers []*Timer
	var refTimers []*refEvent // parallel to timers
	nextID := 0
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}

	// emit schedules one plain logged event d from now on both sides.
	emit := func(d time.Duration) {
		id := nextID
		nextID++
		eng.AfterE(d, logFire, wheel, nil, uint64(id))
		ref.after(d, func() { refs.add(id) })
	}

	for pos < len(data) {
		switch op := next() % 11; op {
		case 0, 1: // schedule one event; delay spans every wheel level
			lo := uint64(next()) | uint64(next())<<8
			shift := uint(next()) % 48
			d := time.Duration(lo << shift)
			if d < 0 {
				d = time.Duration(lo)
			}
			// Keep deadlines clear of Time overflow: the engine panics on
			// wrapped deadlines, and the point here is scheduling order.
			if rem := MaxTime - eng.Now(); Time(d) > rem/2 {
				d = time.Duration(rem / 2)
			}
			id := nextID
			nextID++
			if op == 0 { // typed API
				tm := new(Timer)
				eng.ArmAfterE(tm, d, logFire, wheel, nil, uint64(id))
				timers = append(timers, tm)
			} else { // closure adapter
				timers = append(timers, armTimer(eng, d, func() { wheel.add(id) }))
			}
			refTimers = append(refTimers, ref.after(d, func() { refs.add(id) }))
		case 2: // same-instant burst
			n := int(next())%6 + 2
			d := time.Duration(next())
			for k := 0; k < n; k++ {
				emit(d)
			}
		case 3: // event that schedules another at its own instant (drain-time insert)
			d := time.Duration(uint64(next()) << (uint(next()) % 20))
			id := nextID
			nextID += 2
			eng.After(d, func() {
				wheel.add(id)
				eng.AtE(eng.Now(), logFire, wheel, nil, uint64(id+1))
			})
			ref.after(d, func() {
				refs.add(id)
				ref.after(0, func() { refs.add(id + 1) })
			})
		case 4: // cancel a prior timer on both sides; results must agree
			if len(timers) == 0 {
				continue
			}
			i := int(next()) % len(timers)
			a := timers[i].Stop()
			b := ref.stop(refTimers[i])
			if a != b {
				t.Fatalf("Stop() diverged on timer %d: wheel=%v ref=%v", i, a, b)
			}
		case 5: // partial stepping
			n := int(next()) % 16
			for k := 0; k < n; k++ {
				a := eng.Step()
				b := ref.step()
				if a != b {
					t.Fatalf("Step() diverged: wheel=%v ref=%v", a, b)
				}
			}
		case 6: // bounded run
			d := time.Duration(uint64(next())<<uint(next()%24) + 1)
			until := eng.Now().Add(d)
			eng.RunUntil(until)
			ref.runUntil(until)
		case 7: // a callback arms a zero-delay timer; a later callback of the same instant may stop it (the tail of the list being drained)
			d := time.Duration(uint64(next()) << (uint(next()) % 20))
			stop := next()%2 == 0
			id := nextID
			nextID += 4
			var tm *Timer
			eng.After(d, func() {
				wheel.add(id)
				tm = new(Timer)
				eng.ArmAfterE(tm, 0, logFire, wheel, nil, uint64(id+1))
			})
			eng.After(d, func() {
				wheel.add(id + 2)
				if stop && tm.Stop() {
					wheel.add(id + 3)
				}
			})
			var rt *refEvent
			ref.after(d, func() {
				refs.add(id)
				rt = ref.after(0, func() { refs.add(id + 1) })
			})
			ref.after(d, func() {
				refs.add(id + 2)
				if stop && ref.stop(rt) {
					refs.add(id + 3)
				}
			})
		case 8: // zero-delay chain of depth n started from inside a callback
			d := time.Duration(uint64(next()) << (uint(next()) % 20))
			n := int(next())%40 + 1
			id := nextID
			nextID += n + 1
			var link, refLink func(k int)
			link = func(k int) {
				wheel.add(id + k)
				if k < n {
					eng.After(0, func() { link(k + 1) })
				}
			}
			refLink = func(k int) {
				refs.add(id + k)
				if k < n {
					ref.after(0, func() { refLink(k + 1) })
				}
			}
			eng.After(d, func() { link(0) })
			ref.after(d, func() { refLink(0) })
		case 9: // current-instant schedules between RunUntil probes with nothing else pending
			eng.Run()
			for ref.step() {
			}
			// now is the instant just drained, inside the origin's window.
			emit(0)
			emit(0)
			eng.RunUntil(eng.Now())
			ref.runUntil(ref.now)
			// The clock moves on with nothing fired, possibly out of the
			// origin's window.
			until := eng.Now().Add(time.Duration(next()) + 1)
			eng.RunUntil(until)
			ref.runUntil(until)
			emit(0)
			emit(time.Duration(next() % 2))
			eng.RunUntil(eng.Now())
			ref.runUntil(ref.now)
			emit(0)
		case 10: // burst sharing a far-level slot: ties at the minimum and distinct instants (cascade-to-minimum)
			d := time.Duration((uint64(next()) + 1) << (12 + uint(next())%30))
			n := int(next())%6 + 3
			for k := 0; k < n; k++ {
				var off uint64
				switch b := next(); b % 4 {
				case 1:
					off = uint64(b) // level 0 after the cascade
				case 2:
					off = uint64(b) << 6 // level 0 or 1
				}
				emit(d + time.Duration(off))
			}
		}
		if eng.Now() != ref.now {
			t.Fatalf("clocks diverged: wheel=%v ref=%v", eng.Now(), ref.now)
		}
		if eng.Pending() != ref.pending {
			t.Fatalf("Pending diverged: wheel=%d ref=%d", eng.Pending(), ref.pending)
		}
	}

	eng.Run()
	for ref.step() {
	}

	if eng.Executed() != ref.executed {
		t.Fatalf("Executed diverged: wheel=%d ref=%d", eng.Executed(), ref.executed)
	}
	if eng.HighWater() != ref.highWater {
		t.Fatalf("HighWater diverged: wheel=%d ref=%d", eng.HighWater(), ref.highWater)
	}
	if eng.Pending() != 0 || ref.pending != 0 {
		t.Fatalf("events left pending after Run: wheel=%d ref=%d", eng.Pending(), ref.pending)
	}
	if len(wheel.log) != len(refs.log) {
		t.Fatalf("fire counts diverged: wheel=%d ref=%d", len(wheel.log), len(refs.log))
	}
	for i := range wheel.log {
		if wheel.log[i] != refs.log[i] {
			t.Fatalf("firing %d diverged: wheel=%+v ref=%+v", i, wheel.log[i], refs.log[i])
		}
	}
}

// TestWheelVsHeapRandomized drives long random scripts through both
// schedulers. Failures reproduce exactly from the printed seed.
func TestWheelVsHeapRandomized(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b9))
		n := 2000
		if testing.Short() {
			n = 300
		}
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		t.Run("", func(t *testing.T) { script(t, data) })
	}
}

// FuzzWheelVsHeap lets the fuzzer search for schedules where the wheel and
// the reference heap disagree. The checked-in corpus covers each op plus
// known-delicate shapes: delays past 2^42 ns, cancellation inside the
// instant being drained, same-instant bursts straddling a cascade, the
// slot lists' FIFO order.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0})
	f.Add([]byte{2, 5, 0, 0, 1, 255, 255, 47, 4, 0, 5, 15})
	f.Add([]byte{0, 255, 255, 47, 0, 1, 0, 0, 4, 0, 4, 1, 5, 9})
	f.Add([]byte{3, 200, 18, 3, 0, 0, 5, 3, 4, 0, 6, 9, 23})
	// A zero-delay timer stopped (and left to fire) at the tail of the list
	// being drained; a deep zero-delay chain behind a cascade; current-
	// instant schedules around RunUntil probes; far-slot bursts with ties at
	// the minimum, fired in part, then cancelled into.
	f.Add([]byte{7, 9, 0, 0, 7, 9, 0, 1, 7, 200, 13, 0, 5, 15})
	f.Add([]byte{8, 77, 14, 39, 2, 3, 0, 8, 0, 0, 5, 6, 15})
	f.Add([]byte{0, 9, 0, 0, 9, 40, 1, 5, 2, 9, 0, 0, 2, 3, 0})
	f.Add([]byte{10, 3, 0, 5, 0, 4, 1, 2, 0, 130, 10, 3, 0, 2, 0, 0, 0, 5, 4, 10, 0, 20, 3, 0, 0, 8, 6, 1, 16})
	// Stop on a same-instant sibling of the level-0 list being drained: by
	// a callback, the list's only event and its tail behind a burst (op 7:
	// the sibling it stops is always the newest); between partial steps,
	// the head, a middle event and the tail of what is left, then a timer
	// that already fired.
	f.Add([]byte{7, 20, 0, 0, 7, 9, 0, 0, 2, 1, 9, 5, 15})
	f.Add([]byte{0, 9, 0, 0, 0, 9, 0, 0, 0, 9, 0, 0, 0, 9, 0, 0, 0, 9, 0, 0, 5, 1, 4, 1, 4, 3, 4, 4, 4, 0, 5, 3})
	// A cascade whose level-2 slot holds four events at one instant, filed
	// around a plain timer at that instant and another after, plus distinct
	// instants landing in levels 0 and 1: FIFO order with no sort.
	f.Add([]byte{0, 1, 0, 18, 10, 0, 6, 5, 0, 4, 1, 8, 5, 254, 3, 9, 0, 1, 0, 18, 5, 3, 4, 1, 5, 15})
	// Stop on far-level timers inside one multi-event slot list (the
	// middle, the head, the tail), then steps through the cascade; then a
	// tie at a far instant stepped in part and its head stopped.
	f.Add([]byte{0, 1, 0, 30, 0, 2, 0, 29, 0, 5, 0, 28, 0, 1, 0, 30, 0, 3, 0, 28, 4, 1, 4, 0, 4, 3, 5, 2,
		0, 1, 0, 32, 0, 1, 0, 32, 0, 9, 0, 31, 5, 1, 4, 6, 5, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("cap script length")
		}
		script(t, data)
	})
}

// levelOf returns the wheel level of heads index i.
func levelOf(i uint) int {
	if i < level0Slots {
		return 0
	}
	return 1 + int(i-level0Slots)/wheelSlots
}

// residents walks every slot list and counts the events at each level.
func residents(e *Engine) (per [wheelLevels]int) {
	for i, head := range e.heads {
		for ev := head; ev != nil; {
			per[levelOf(uint(i))]++
			if ev = ev.next; ev == head {
				break
			}
		}
	}
	return per
}

// TestWheelEveryLevel pins the geometry and the cascade path at all 10
// levels: level k ≥ 1 starts at 4096·64^(k−1) from origin 0, and one event
// per level, the last two representable instants, 2^42+7, and neighbours
// on both sides of the level-0 window's edge filed from a non-aligned
// origin must fire in global (time, seq) order, with a far-level timer
// stopped and re-armed and read-only RunUntil probes in between.
func TestWheelEveryLevel(t *testing.T) {
	e := New()
	var got, want []firing
	rec := func(_, _ any, id uint64) { got = append(got, firing{int(id), e.Now()}) }
	id := 0
	at := func(tm Time) {
		id++
		want = append(want, firing{id, tm})
		e.AtE(tm, rec, nil, nil, uint64(id))
	}
	level := func(tm Time) int { return levelOf(e.slotOf(tm)) }
	// Two events share MaxTime so seq order is checked at the top level.
	ts := []Time{MaxTime, MaxTime, MaxTime - 1, 1<<42 + 7, 1, level0Slots - 1}
	for k, v := 1, Time(level0Slots); k < wheelLevels; k, v = k+1, v*wheelSlots {
		if level(v-1) != k-1 || level(v) != k {
			t.Fatalf("instants %v, %v file at levels %d, %d; want %d, %d", v-1, v, level(v-1), level(v), k-1, k)
		}
		ts = append(ts, v)
	}
	// Schedule in reverse so insertion order disagrees with time order.
	for i := len(ts) - 1; i >= 0; i-- {
		at(ts[i])
	}
	// The cascade to this level-1 event moves the origin off the 4096-ns
	// grid; from there its callback files both sides of the window's edge.
	const origin, edge = 2*level0Slots + 777, 3 * level0Slots
	id++
	want = append(want, firing{id, origin})
	e.AtE(origin, func(_, _ any, self uint64) {
		rec(nil, nil, self)
		if e.base != origin {
			t.Fatalf("origin %v after the cascade, want %v", e.base, origin)
		}
		for _, tm := range []Time{origin, edge - 1, edge, edge + 1, origin + 4095, origin + 4096, origin + 4097} {
			if want := min(int(tm^origin)>>level0Bits, 1); level(tm) != want {
				t.Fatalf("%v files at level %d from origin %v, want %d", tm, level(tm), origin, want)
			}
			at(tm)
		}
	}, nil, nil, uint64(id))
	var tm Timer
	e.ArmAfterE(&tm, 1<<50, rec, nil, nil, 0) // level 7
	per, resident := residents(e), 0
	for lvl, n := range per {
		if n == 0 {
			t.Fatalf("level %d holds no event", lvl)
		}
		resident += n
	}
	if resident != e.Pending() {
		t.Fatalf("%d of %d pending events have a wheel slot", resident, e.Pending())
	}

	// Fires levels 0..4 (from origin 0) and the window's neighbours; the
	// probe that ends the run reads level 5.
	e.RunUntil(1 << 30)
	if len(got) != 14 || e.Now() != 1<<30 {
		t.Fatalf("after RunUntil(2^30): fired %d at %v, want 14", len(got), e.Now())
	}
	if n := e.Pending(); !tm.Stop() || tm.Pending() || tm.Stop() || e.Pending() != n-1 {
		t.Fatalf("far-level Stop: pending %d -> %d, timer pending %v", n, e.Pending(), tm.Pending())
	}
	e.RunUntil(1<<42 + 6)
	if len(got) != 16 {
		t.Fatalf("after RunUntil(2^42+6): fired %d, want 16", len(got))
	}
	id++
	want = append(want, firing{id, 1 << 55})
	e.ArmAfterE(&tm, (Time(1) << 55).Sub(e.Now()), rec, nil, nil, uint64(id)) // level 8
	e.RunUntil(MaxTime - 2)
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d before the last two instants, want 3", e.Pending())
	}
	e.Run()

	slices.SortFunc(want, func(a, b firing) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id))
	})
	if !slices.Equal(got, want) {
		t.Fatalf("fire order\n got %v\nwant %v", got, want)
	}
	if e.Pending() != 0 || e.Now() != MaxTime {
		t.Fatalf("Pending = %d, Now = %v after Run", e.Pending(), e.Now())
	}
	if len(e.free) != e.HighWater() {
		t.Fatalf("free list holds %d events, want HighWater %d", len(e.free), e.HighWater())
	}
}

// TestDeadlineOverflowPanics: a timer deadline that wraps Time must not
// enter the schedule (every pending event is >= the wheel origin).
func TestDeadlineOverflowPanics(t *testing.T) {
	e := New()
	e.RunUntil(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ArmAfterE past MaxTime did not panic")
			}
		}()
		e.ArmAfterE(new(Timer), math.MaxInt64, logFire, nil, nil, 0)
	}()
	if e.Pending() != 0 {
		t.Errorf("ArmAfterE left %d events pending", e.Pending())
	}
}

// TestFreeListTracksHighWater verifies the recycle cap follows the
// measured peak backlog instead of a magic constant.
func TestFreeListTracksHighWater(t *testing.T) {
	e := New()
	const n = 10_000 // well beyond the old 4096 cap
	for i := 0; i < n; i++ {
		e.At(Time(i), func() {})
	}
	if e.HighWater() != n {
		t.Fatalf("HighWater = %d, want %d", e.HighWater(), n)
	}
	e.Run()
	if got := len(e.free); got != n {
		t.Fatalf("free list holds %d events after drain, want %d (high-water cap)", got, n)
	}
	// Steady state far below the peak: the free list must not grow past
	// the high-water mark.
	for i := 0; i < 100; i++ {
		e.After(time.Nanosecond, func() {})
		e.Run()
	}
	if got := len(e.free); got > n {
		t.Fatalf("free list grew to %d, beyond high-water %d", got, n)
	}
}

// warmChainDelays spreads re-arm deadlines across the wheel: the instant
// being drained (0), level 0 (200 ns), level 0 or 1 (3 µs), level 1
// (50 µs) and level 2 (800 µs, 12 ms).
var warmChainDelays = [...]time.Duration{
	0,
	200 * time.Nanosecond,
	3 * time.Microsecond,
	50 * time.Microsecond,
	800 * time.Microsecond,
	12 * time.Millisecond,
}

// warmChain is one self-rescheduling event chain; left is shared across
// chains so a run fires a fixed number of events.
type warmChain struct {
	eng  *Engine
	left *int
	i    int
}

func warmChainFire(recv, _ any, _ uint64) {
	c := recv.(*warmChain)
	if *c.left <= 0 {
		return
	}
	*c.left--
	c.i++
	c.eng.AfterE(warmChainDelays[c.i%len(warmChainDelays)], warmChainFire, c, nil, 0)
}

// TestWarmScheduleFireZeroAlloc: slot lists are intrusive and their heads
// a fixed array, so once the free list holds the workload's peak a typed
// schedule+fire cycle allocates nothing on any wheel level.
func TestWarmScheduleFireZeroAlloc(t *testing.T) {
	e := New()
	var left int
	chains := make([]*warmChain, 64)
	for i := range chains {
		chains[i] = &warmChain{eng: e, left: &left, i: i}
	}
	run := func(events int) {
		left = events
		for _, c := range chains {
			e.AfterE(warmChainDelays[c.i%len(warmChainDelays)], warmChainFire, c, nil, 0)
		}
		e.Run()
	}
	run(1_000)
	if allocs := testing.AllocsPerRun(10, func() { run(1_000) }); allocs != 0 {
		t.Fatalf("warm schedule+fire cycle allocates %.0f objects per 1000 events, want 0", allocs)
	}
}
