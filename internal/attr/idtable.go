package attr

import "math/bits"

// idTable maps the IDs of open requests to their records without a Go
// map: open addressing with linear probing over a power-of-two slot count
// kept at most half full, Fibonacci hashing (so consecutive IDs and
// tenant-stamped ones, i<<32 + n, spread alike) and backward-shift
// deletion, which leaves no tombstones. New sizes it before first use.
type idTable struct {
	slots []idSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

// idSlot is one table entry; st == nil marks it empty.
type idSlot struct {
	id uint64
	st *reqState
}

func (t *idTable) home(id uint64) int { return int((id * 0x9e3779b97f4a7c15) >> t.shift) }

// find returns the slot holding id, or the empty slot ending its probe run.
func (t *idTable) find(id uint64) int {
	i := t.home(id)
	for t.slots[i].st != nil && t.slots[i].id != id {
		i = (i + 1) & (len(t.slots) - 1)
	}
	return i
}

// get returns id's record, nil when none is open.
//
//mindgap:noalloc
func (t *idTable) get(id uint64) *reqState { return t.slots[t.find(id)].st }

// put files st under id, which must not be open.
func (t *idTable) put(id uint64, st *reqState) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.slots[t.find(id)] = idSlot{id: id, st: st}
	t.n++
}

// del removes id's record and returns it (nil when none was open), then
// shifts back each later entry of the probe run that may fill the hole.
//
//mindgap:noalloc
func (t *idTable) del(id uint64) *reqState {
	mask := len(t.slots) - 1
	i := t.find(id)
	st := t.slots[i].st
	if st == nil {
		return nil
	}
	t.n--
	for j := (i + 1) & mask; t.slots[j].st != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if its home does not
		// lie cyclically in (i, j]: a probe from there would not reach i.
		if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = idSlot{}
	return st
}

// grow doubles the slot count (64 at first) and refiles every entry.
func (t *idTable) grow() {
	old := t.slots
	t.slots = make([]idSlot, max(2*len(old), 64))
	t.shift = 65 - uint(bits.Len(uint(len(t.slots))))
	for _, e := range old {
		if e.st != nil {
			t.slots[t.find(e.id)] = e
		}
	}
}
