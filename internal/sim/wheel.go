// Hierarchical timing wheel.
//
// The scheduler is a hashed hierarchical timing wheel (Varghese & Lauck)
// indexed by the bits of the event's absolute nanosecond timestamp. Level 0
// has 4096 one-nanosecond slots covering the wheel origin's aligned 4096-ns
// window, under a two-level occupancy bitmap (sum0 over 64 occ words);
// levels 1–9 are radix 64 over the bits above it. 12 + 9·6 = 66 bits
// exceed the 63 value bits of Time, so every schedulable instant has a slot
// and there is no overflow structure. The width of level 0 is sized to the
// delays the models schedule (most are under 4 µs), so a typical event is
// filed straight into its own instant and fires without a cascade. A
// measured pure binary heap was ≈1.4× slower end to end (ROADMAP, "Event
// diet"); it survives only as the test-only reference scheduler in
// wheel_test.go.
//
// Leveling uses the XOR-prefix rule: an event lives at level 0 if it shares
// every bit above the low 12 with the wheel origin `base`, else at the level
// of its highest radix-64 digit that differs from base. Because events are
// never scheduled before base, the differing digit of an event is always
// strictly greater than base's digit at that level, which yields the two
// invariants the total order rests on:
//
//  1. Every occupied slot at a level lies at or after base's own slot there
//     (strictly after, above level 0) — a bitmap scan from the low end finds
//     the earliest slot with no wraparound ambiguity.
//  2. All events at level L fire before any event at level L+1, because a
//     level-L event shares digits above L with base while a level-(L+1)
//     event exceeds base in digit L+1.
//
// Every slot is an intrusive circular doubly-linked list, kept in the order
// its events were scheduled: a new event is the newest pending event and
// appends at the tail, and a cascade re-files one
// list front to back into lower levels, which are all empty at that moment.
// Where an event lives is a function of its instant and base alone, so all
// events of one instant share one list, and a level-0 slot, which is a
// single instant, is already in the exact (time, seq) FIFO order of a heap:
// firing pops its head. Only when level 0 is empty does the earliest slot of
// the lowest occupied level cascade: the origin advances to that slot's
// earliest instant and the slot re-files below, so level 0 again holds the
// next event.
//
// The origin only advances inside Step (while firing), never from a peek:
// user code runs between steps and may schedule at any t >= now, so base
// must stay <= now whenever user code can run. RunUntil therefore probes
// the schedule with a read-only peekTime.
package sim

import "math/bits"

const (
	level0Bits  = 12
	level0Slots = 1 << level0Bits // 4096 one-nanosecond slots
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits         // 64 slots per level above 0
	wheelMask   = uint64(wheelSlots) - 1 // one digit
	wheelLevels = 10                     // 12 + 9·6 = 66 bits: all of Time (the top level uses slots 0..7)
	// wheelHeads is the number of slot lists: level 0's, then 64 per level
	// above it, so heads index i has its occupancy bit at occ[i/64] bit i%64.
	wheelHeads = level0Slots + (wheelLevels-1)*wheelSlots
)

// slotOf returns the heads index of the slot an event at t belongs in
// under the current origin (the XOR-prefix rule). Requires t >= e.base.
//
//mindgap:noalloc
func (e *Engine) slotOf(t Time) uint {
	diff := uint64(t) ^ uint64(e.base)
	if diff < level0Slots {
		return uint(t) % level0Slots
	}
	lvl := uint(bits.Len64(diff)-1-level0Bits) / wheelBits // 0 for level 1
	return level0Slots + lvl*wheelSlots + uint(uint64(t)>>(level0Bits+lvl*wheelBits)&wheelMask)
}

// file appends ev to the tail of its slot's list. Requires ev.at >= e.base
// and ev to be the newest pending event of that list.
//
//mindgap:noalloc
func (e *Engine) file(ev *event) {
	i := e.slotOf(ev.at)
	head := e.heads[i]
	if head == nil {
		ev.next, ev.prev = ev, ev
		e.heads[i] = ev
		e.occ[i/64] |= 1 << (i % 64)
		if i < level0Slots {
			e.sum0 |= 1 << (i / 64)
		}
		return
	}
	tail := head.prev
	ev.next, ev.prev = head, tail
	tail.next = ev
	head.prev = ev
}

// unlink removes ev from slot i's list in O(1), wherever in the list it is.
//
//mindgap:noalloc
func (e *Engine) unlink(i uint, ev *event) {
	if ev.next == ev {
		e.heads[i] = nil
		w := i / 64
		e.occ[w] &^= 1 << (i % 64)
		if i < level0Slots && e.occ[w] == 0 {
			e.sum0 &^= 1 << w
		}
		return
	}
	ev.prev.next = ev.next
	ev.next.prev = ev.prev
	if e.heads[i] == ev {
		e.heads[i] = ev.next
	}
}

// first0 returns the heads index of the earliest occupied level-0 slot.
// Requires e.sum0 != 0.
//
//mindgap:noalloc
func (e *Engine) first0() uint {
	w := uint(bits.TrailingZeros64(e.sum0))
	return w*64 + uint(bits.TrailingZeros64(e.occ[w]))
}

// earliestUpper returns the heads index of the earliest occupied slot above
// level 0 and that slot's earliest instant; ok is false when every level
// above 0 is empty.
//
//mindgap:noalloc
func (e *Engine) earliestUpper() (i uint, first Time, ok bool) {
	for w := uint(level0Slots / 64); w < uint(len(e.occ)); w++ {
		if e.occ[w] != 0 {
			i = w*64 + uint(bits.TrailingZeros64(e.occ[w]))
			head := e.heads[i]
			first = head.at
			for ev := head.next; ev != head; ev = ev.next {
				first = min(first, ev.at)
			}
			return i, first, true
		}
	}
	return 0, 0, false
}

// next returns the earliest pending event, removed from the schedule, or
// nil when none is pending. When level 0 is empty it first cascades the
// earliest slot of the lowest occupied level: the origin moves to that
// slot's earliest instant, which is <= every pending event (the slot is the
// earliest and the levels below it are empty) and agrees with the old
// origin on every digit above the slot's level, so the other slots keep
// their places; the slot's own events agree with it on that level's digit
// too and so re-file strictly below that level, into empty lists, in list
// order.
// Only Step may call next: it advances the origin.
//
//mindgap:noalloc
func (e *Engine) next() *event {
	if e.sum0 == 0 {
		i, first, ok := e.earliestUpper()
		if !ok {
			return nil
		}
		head := e.heads[i]
		e.heads[i] = nil
		e.occ[i/64] &^= 1 << (i % 64)
		e.base = first
		for ev := head; ; {
			after := ev.next // read before file relinks ev
			e.file(ev)
			if after == head {
				break
			}
			ev = after
		}
	}
	i := e.first0()
	ev := e.heads[i]
	e.unlink(i, ev)
	return ev
}

// peekTime returns the earliest pending instant without mutating the wheel
// (no cascade, no origin advance): RunUntil probes the schedule between
// steps, when user code may still schedule events at any t >= now, so the
// origin must not move past now here.
//
//mindgap:noalloc
func (e *Engine) peekTime() (Time, bool) {
	if e.sum0 != 0 {
		return e.heads[e.first0()].at, true
	}
	_, first, ok := e.earliestUpper()
	return first, ok
}
