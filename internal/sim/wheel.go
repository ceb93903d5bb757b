// Hierarchical timing wheel.
//
// The scheduler is an 11-level radix-64 calendar queue indexed by the digits
// of the event's absolute nanosecond timestamp. 11 levels span 66 bits, more
// than the 63 value bits of Time, so every schedulable instant has a slot
// and there is no overflow structure. Scheduling and firing are O(1)
// amortized. A measured pure binary heap was ≈1.4× slower end to end
// (ROADMAP, "Event diet"); it survives only as the test-only reference
// scheduler in wheel_test.go.
//
// Leveling uses the XOR-prefix rule: an event lives at the level of its
// highest radix-64 digit that differs from the wheel origin `base`
// (level 0 if at == base). Because events are never scheduled before base,
// the differing digit of an event is always strictly greater than base's
// digit at that level, which yields the two invariants the total order
// rests on:
//
//  1. Every occupied slot at a level is strictly after base's current digit
//     at that level — a bitmap scan from the low end finds the earliest
//     slot with no wraparound ambiguity.
//  2. All events at level L fire before any event at level L+1, because a
//     level-L event shares digits ≥ L+1 with base while a level-(L+1)
//     event exceeds base in digit L+1.
//
// Level-0 slots are single nanosecond instants (all events in one slot
// share a timestamp), so draining a slot and sorting it by sequence number
// reproduces the exact (time, seq) FIFO order of a heap. Higher-level
// slots are unordered bags; when the lowest occupied level L > 0, the wheel
// origin advances to the earliest instant in that level's earliest slot,
// that instant's events become the ready buffer, and the rest of the slot
// cascades into levels < L (see ensureReady). An event scheduled for the
// instant being drained never enters the wheel at all (see schedule), so a
// typical event is filed once.
//
// The origin only advances inside Step (while firing), never from a peek:
// user code runs between steps and may schedule at any t >= now, so base
// must stay <= now whenever user code can run. RunUntil therefore probes
// the schedule with a read-only peekTime.
package sim

import "math/bits"

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits         // 64 slots per level
	wheelLevels = 11                     // 66 bits: all of Time (the top level uses slots 0..7)
	wheelMask   = uint64(wheelSlots) - 1 // low-digit mask
)

// Event locations, recorded in event.loc so cancellation knows which
// structure to remove from.
const (
	locNone      uint8 = iota // fired, cancelled, or on the free list
	locWheel                  // slots[level][slot][idx]
	locReady                  // drained into the ready buffer, not yet fired
	locReadyDead              // cancelled while in the ready buffer
)

// file places ev into the wheel level selected by the XOR-prefix rule.
// Requires ev.at >= e.base.
//
//mindgap:noalloc
func (e *Engine) file(ev *event) {
	diff := uint64(ev.at) ^ uint64(e.base)
	lvl := 0
	if diff != 0 {
		lvl = (bits.Len64(diff) - 1) / wheelBits
	}
	slot := (uint64(ev.at) >> (lvl * wheelBits)) & wheelMask
	sl := e.slots[lvl][slot]
	ev.loc, ev.level, ev.slot, ev.idx = locWheel, uint8(lvl), uint16(slot), int32(len(sl))
	e.slots[lvl][slot] = append(sl, ev)
	e.occ[lvl] |= 1 << slot
}

// lowestOccupied returns the lowest level > 0 with any occupied slot, or 0
// when every level above 0 is empty (level 0 is checked by the caller).
//
//mindgap:noalloc
func (e *Engine) lowestOccupied() int {
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if e.occ[lvl] != 0 {
			return lvl
		}
	}
	return 0
}

// ensureReady guarantees the ready buffer holds the earliest pending
// instant's events in seq order, cascading one higher wheel level if
// level 0 is empty. It reports false when nothing is pending. Only Step
// may call it: it advances the wheel origin.
//
//mindgap:noalloc
func (e *Engine) ensureReady() bool {
	// Drain cursor first: skip tombstones left by Timer.Stop on events
	// that were already drained into the ready buffer.
	for e.readyPos < len(e.ready) {
		ev := e.ready[e.readyPos]
		if ev.loc == locReady {
			return true
		}
		e.ready[e.readyPos] = nil
		e.readyPos++
		e.recycle(ev) // pending was decremented at Stop time
	}
	e.ready = e.ready[:0]
	e.readyPos = 0

	if e.occ[0] != 0 {
		// A level-0 slot is a single instant: drain it whole, sort by
		// seq, and it becomes the ready buffer. The buffers swap so
		// both retain their capacity across instants.
		slot := bits.TrailingZeros64(e.occ[0])
		e.occ[0] &^= 1 << slot
		sl := e.slots[0][slot]
		e.slots[0][slot] = e.ready
		e.ready = sl
		e.readyTime = sl[0].at
		e.base = e.readyTime
		if len(sl) > 1 {
			sortBySeq(sl)
		}
		for _, ev := range sl {
			ev.loc = locReady
		}
		return true
	}

	lvl := e.lowestOccupied()
	if lvl == 0 {
		return false
	}
	// Cascade to the minimum: the earliest occupied slot's earliest instant
	// is the next to fire, so its events go straight to the ready buffer and
	// the origin advances to that instant, not to the start of the slot's
	// window. The origin is still <= every pending event, and it keeps its
	// digits above lvl and takes this slot's at lvl, so both wheel
	// invariants hold. The rest of the slot agrees with the new origin on
	// every digit >= lvl, so it re-files strictly below lvl and the slot is
	// cleared in the same pass.
	slot := bits.TrailingZeros64(e.occ[lvl])
	e.occ[lvl] &^= 1 << slot
	sl := e.slots[lvl][slot]
	first := sl[0].at
	for _, ev := range sl[1:] {
		if ev.at < first {
			first = ev.at
		}
	}
	e.base, e.readyTime = first, first
	for i, ev := range sl {
		sl[i] = nil
		if ev.at == first {
			ev.loc = locReady
			e.ready = append(e.ready, ev)
		} else {
			e.file(ev)
		}
	}
	e.slots[lvl][slot] = sl[:0]
	if len(e.ready) > 1 {
		sortBySeq(e.ready)
	}
	return true
}

// next returns the earliest pending event, removed from the schedule, or
// nil when none is pending.
//
//mindgap:noalloc
func (e *Engine) next() *event {
	if !e.ensureReady() {
		return nil
	}
	ev := e.ready[e.readyPos]
	e.ready[e.readyPos] = nil
	e.readyPos++
	ev.loc = locNone
	return ev
}

// peekTime returns the earliest pending instant without mutating the wheel
// (no cascade, no origin advance): RunUntil probes the schedule between
// steps, when user code may still schedule events at any t >= now, so the
// origin must not move past now here.
//
//mindgap:noalloc
func (e *Engine) peekTime() (Time, bool) {
	for e.readyPos < len(e.ready) {
		ev := e.ready[e.readyPos]
		if ev.loc == locReady {
			return e.readyTime, true
		}
		e.ready[e.readyPos] = nil
		e.readyPos++
		e.recycle(ev)
	}
	if e.occ[0] != 0 {
		slot := bits.TrailingZeros64(e.occ[0])
		return e.slots[0][slot][0].at, true
	}
	if lvl := e.lowestOccupied(); lvl > 0 {
		slot := bits.TrailingZeros64(e.occ[lvl])
		best := MaxTime
		for _, ev := range e.slots[lvl][slot] {
			if ev.at < best {
				best = ev.at
			}
		}
		return best, true
	}
	return 0, false
}

// remove cancels a pending event wherever it currently lives. Events
// already drained into the ready buffer are tombstoned in place (the drain
// cursor recycles them); wheel residents are removed immediately.
//
//mindgap:noalloc
func (e *Engine) remove(ev *event) {
	switch ev.loc {
	case locWheel:
		sl := e.slots[ev.level][ev.slot]
		last := len(sl) - 1
		if i := int(ev.idx); i >= 0 && i <= last && sl[i] == ev {
			sl[i] = sl[last]
			sl[i].idx = int32(i)
			sl[last] = nil
			e.slots[ev.level][ev.slot] = sl[:last]
			if last == 0 {
				e.occ[ev.level] &^= 1 << ev.slot
			}
		}
		e.pending--
		e.recycle(ev)
	case locReady:
		ev.loc = locReadyDead
		e.pending--
	}
}

// sortBySeq orders one drained slot by sequence number (all entries share a
// timestamp; seqs are unique). Insertion sort: slots hold a handful of
// same-instant events, and the common burst arrives already ordered.
//
//mindgap:noalloc
func sortBySeq(sl []*event) {
	for i := 1; i < len(sl); i++ {
		ev := sl[i]
		j := i - 1
		for j >= 0 && sl[j].seq > ev.seq {
			sl[j+1] = sl[j]
			j--
		}
		sl[j+1] = ev
	}
}
