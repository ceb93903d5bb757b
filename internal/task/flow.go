// Flow identity: the per-flow state record behind the flow-keyed
// workload layer. Where Request models one unit of application work, a
// Flow models the network-level identity that SmartNIC offload engines
// key their state on — the 5-tuple a rule table matches, the connection
// a PnO-TCP engine owns. Systems that offload per-flow state (the
// flowrule kind) read and mutate the record; systems that ignore flow
// identity never touch it.
package task

import "mindgap/internal/sim"

// FlowID uniquely identifies one flow for its whole lifetime (a
// stand-in for the 5-tuple hash a real NIC would match on).
type FlowID uint64

// FlowClass partitions flows by size, after the elephant/rat split of
// the SmartNIC offload literature: a few heavy-hitter elephants carry
// most packets, a long tail of rats carries the rest.
type FlowClass uint8

const (
	// ClassRat is a short flow: a handful of packets, dead before any
	// offload decision can pay off.
	ClassRat FlowClass = iota
	// ClassElephant is a long flow: the packet train that makes a
	// fast-path rule worth its insertion cost and table slot.
	ClassElephant
)

// Flow is the pooled per-flow state record. It is referenced from two
// sides with different lifetimes: the load generator owns the workload
// view (Remaining, Retired) and a rule-table system owns the NIC view
// (Seen, Resident, PendingInsert, the LRU links). Neither side may free
// the record while the other still holds it — ReleaseIfIdle is the one
// release point, callable from either side, and a no-op until every
// reference is gone.
type Flow struct {
	// ID uniquely identifies the flow.
	ID FlowID
	// Class is the flow's size class (elephant or rat).
	Class FlowClass
	// Remaining is how many packets the workload has yet to transmit.
	Remaining uint32
	// InFlight counts batches emitted by the generator but not yet
	// observed by the sink's classifier.
	InFlight uint32
	// Seen counts packets the NIC classifier has observed — the signal
	// offload-threshold policies act on.
	Seen uint64
	// Resident marks an installed fast-path rule for this flow.
	Resident bool
	// PendingInsert marks a rule sitting in the insertion pipeline.
	PendingInsert bool
	// Retired marks the workload side done with the flow (train
	// exhausted). The record stays live until the NIC side lets go.
	Retired bool
	// LastHit is the last fast-path hit instant (idle-timeout eviction).
	LastHit sim.Time
	// LRUPrev and LRUNext link resident flows in recency order. They are
	// owned by the rule-table system; everything else must leave them be.
	LRUPrev, LRUNext *Flow
	// Gen counts reuses of this struct through a FlowPool, with the same
	// snapshot-and-compare discipline as Request.Gen.
	Gen uint32
	// pool is the owning pool (nil for plain-allocated flows), so
	// ReleaseIfIdle can be called by components that never saw the pool.
	pool *FlowPool
	// pooled guards against double release.
	pooled bool
}

// NewFlow creates an unpooled flow with the full packet train remaining.
func NewFlow(id FlowID, class FlowClass, train uint32) *Flow {
	return &Flow{ID: id, Class: class, Remaining: train}
}

// ReleaseIfIdle returns the record to its pool once nothing references
// it: the workload retired the flow, no batch is in flight toward the
// classifier, and the NIC holds neither a resident rule nor a pending
// insertion. Both the generator and the rule-table system call it after
// clearing their reference; whichever call drops the last one frees the
// record. It reports whether the record was released.
//
//mindgap:noalloc
func (f *Flow) ReleaseIfIdle() bool {
	if !f.Retired || f.InFlight != 0 || f.Resident || f.PendingInsert {
		return false
	}
	if f.pool == nil {
		// Plain-allocated flow: the GC collects it once the caller's
		// reference goes away.
		return true
	}
	f.pool.Put(f)
	return true
}

// FlowPool recycles Flow records with the same generation-guarded
// discipline as Pool: each reuse bumps Gen, Put panics on double
// release, and the free list is capped at the measured high-water mark
// of concurrently live records. Fresh records are carved from
// flowChunk-record slabs, so a point's footprint follows the flows it
// touches — not the population it declares — at one allocation per
// flowChunk of them.
type FlowPool struct {
	free  []*Flow
	chunk []Flow // the current slab's records not yet handed out
	live  int    // currently checked-out flows
	high  int    // peak live; caps the free list
}

// flowChunk is the slab size: large enough that slab allocations vanish
// from a point's allocation count, small enough (≈5 KB) that a
// few-flow point does not pay for records it never uses.
const flowChunk = 64

// Get returns a flow with the full packet train remaining, recycled
// from the pool when possible.
//
//mindgap:noalloc
func (p *FlowPool) Get(id FlowID, class FlowClass, train uint32) *Flow {
	p.live++
	if p.live > p.high {
		p.high = p.live
	}
	var f *Flow
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		if len(p.chunk) == 0 {
			p.grow()
		}
		f = &p.chunk[0]
		p.chunk = p.chunk[1:]
	}
	// Gen survives recycling (bumped at Put); a fresh record starts at 0.
	*f = Flow{ID: id, Class: class, Remaining: train, Gen: f.Gen, pool: p}
	return f
}

// grow starts a new slab. It is the pool's one allocation site, kept out
// of the annotated Get the way NewFlow keeps the unpooled one.
func (p *FlowPool) grow() { p.chunk = make([]Flow, flowChunk) }

// Put releases a flow back to the pool. The caller must hold the only
// live reference; ReleaseIfIdle is the usual (reference-counted) way
// in. Put panics on double release.
//
//mindgap:noalloc
func (p *FlowPool) Put(f *Flow) {
	if f.pooled {
		panic("task: Put on an already-released flow")
	}
	f.pooled = true
	f.Gen++
	f.LRUPrev, f.LRUNext = nil, nil
	p.live--
	if len(p.free) < p.high {
		p.free = append(p.free, f)
	}
}

// Live returns the number of checked-out flows.
func (p *FlowPool) Live() int { return p.live }

// HighWater returns the peak number of simultaneously live flows.
func (p *FlowPool) HighWater() int { return p.high }
