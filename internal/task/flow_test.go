package task

import "testing"

func TestFlowPoolRecyclesWithGenBump(t *testing.T) {
	p := &FlowPool{}
	f := p.Get(1, ClassElephant, 1024)
	if f.ID != 1 || f.Class != ClassElephant || f.Remaining != 1024 {
		t.Fatalf("fresh flow = %+v", f)
	}
	g0 := f.Gen
	f.Seen, f.Resident = 99, true
	f.Resident = false
	p.Put(f)
	f2 := p.Get(2, ClassRat, 4)
	if f2 != f {
		t.Fatalf("pool did not recycle the freed record")
	}
	if f2.Gen != g0+1 {
		t.Fatalf("Gen = %d after recycle, want %d", f2.Gen, g0+1)
	}
	if f2.ID != 2 || f2.Class != ClassRat || f2.Remaining != 4 || f2.Seen != 0 ||
		f2.Resident || f2.PendingInsert || f2.Retired || f2.InFlight != 0 {
		t.Fatalf("recycled flow not reset: %+v", f2)
	}
}

func TestFlowPoolDoubleReleasePanics(t *testing.T) {
	p := &FlowPool{}
	f := p.Get(1, ClassRat, 4)
	p.Put(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	p.Put(f)
}

func TestFlowReleaseIfIdleRefCounting(t *testing.T) {
	p := &FlowPool{}
	f := p.Get(1, ClassElephant, 64)
	// Every reference in turn keeps the record alive.
	holds := []struct {
		name  string
		set   func()
		clear func()
	}{
		{"not retired", func() {}, func() { f.Retired = true }},
		{"in flight", func() { f.InFlight = 1 }, func() { f.InFlight = 0 }},
		{"resident rule", func() { f.Resident = true }, func() { f.Resident = false }},
		{"pending insert", func() { f.PendingInsert = true }, func() { f.PendingInsert = false }},
	}
	for _, h := range holds {
		h.set()
		if f.ReleaseIfIdle() {
			t.Fatalf("released while %s", h.name)
		}
		if p.Live() != 1 {
			t.Fatalf("live = %d while %s", p.Live(), h.name)
		}
		h.clear()
	}
	if !f.ReleaseIfIdle() {
		t.Fatal("idle flow not released")
	}
	if p.Live() != 0 {
		t.Fatalf("live = %d after release", p.Live())
	}
}

func TestFlowReleaseIfIdleUnpooled(t *testing.T) {
	f := NewFlow(7, ClassRat, 4)
	if f.ReleaseIfIdle() {
		t.Fatal("released a flow that is not retired")
	}
	f.Retired = true
	if !f.ReleaseIfIdle() {
		t.Fatal("unpooled idle flow should report released")
	}
}

func TestFlowPoolFreeListCappedAtHighWater(t *testing.T) {
	p := &FlowPool{}
	var flows []*Flow
	for i := 0; i < 3; i++ {
		flows = append(flows, p.Get(FlowID(i), ClassRat, 4))
	}
	if p.HighWater() != 3 {
		t.Fatalf("high water = %d, want 3", p.HighWater())
	}
	for _, f := range flows {
		p.Put(f)
	}
	// Churn through many more flows: the free list must stay bounded by
	// the high-water mark, one at a time.
	for i := 0; i < 100; i++ {
		p.Put(p.Get(FlowID(i), ClassRat, 4))
	}
	if len(p.free) > p.HighWater() {
		t.Fatalf("free list %d exceeds high water %d", len(p.free), p.HighWater())
	}
}

func TestFlowPoolPutClearsLRULinks(t *testing.T) {
	p := &FlowPool{}
	a, b := p.Get(1, ClassRat, 4), p.Get(2, ClassRat, 4)
	a.LRUNext, b.LRUPrev = b, a
	p.Put(a)
	p.Put(b)
	if a.LRUPrev != nil || a.LRUNext != nil || b.LRUPrev != nil || b.LRUNext != nil {
		t.Fatal("Put left LRU links dangling")
	}
}

// TestFlowPoolCarvesSlabs: fresh records come flowChunk to an allocation,
// each its own record with the full train and the pool's back-pointer.
func TestFlowPoolCarvesSlabs(t *testing.T) {
	const n = 10 * flowChunk
	var p *FlowPool
	flows := make([]*Flow, n)
	allocs := testing.AllocsPerRun(1, func() {
		p = &FlowPool{}
		for i := range flows {
			flows[i] = p.Get(FlowID(i), ClassElephant, 1024)
		}
	})
	if allocs > 1+n/flowChunk {
		t.Fatalf("a pool and %d fresh records cost %.0f allocations, want at most 1 + %d slabs", n, allocs, n/flowChunk)
	}
	seen := map[*Flow]bool{}
	for i, f := range flows {
		if seen[f] || f.ID != FlowID(i) || f.Remaining != 1024 || f.pool != p {
			t.Fatalf("record %d = %+v (duplicate %v)", i, *f, seen[f])
		}
		seen[f] = true
	}
	if p.Live() != n {
		t.Fatalf("live = %d, want %d", p.Live(), n)
	}
}
