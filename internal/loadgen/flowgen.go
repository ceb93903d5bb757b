// The flow generator: the flow-identity-keyed counterpart of the
// open-loop request generator. Where Generator emits i.i.d. requests,
// FlowGenerator maintains an exact population of concurrent flows —
// elephants and rats with per-class packet trains — and emits each
// request as one DPDK-style packet batch stamped with its flow's
// identity and state record. Flow-state systems (the flowrule kind) key
// their rule tables on those records; flow-blind systems simply see a
// request stream whose service times happen to be batch-sized.
package loadgen

import (
	"math/rand/v2"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// Default batch and train sizes, from the chen622/SmartNICSimulator
// exemplar: rats ride 4-packet bursts and die young; elephants ride
// 64-packet bursts and live for many of them.
const (
	DefaultRatBatch      = 4
	DefaultElephantBatch = 64
	DefaultRatTrain      = DefaultRatBatch
	DefaultElephantTrain = 16 * DefaultElephantBatch
)

// FlowConfig describes one flow-keyed client workload.
type FlowConfig struct {
	// RPS is the offered batch arrival rate (batches per second); each
	// batch is one Request standing for up to a class-batch of packets.
	RPS float64
	// Service samples the slow-path per-packet processing cost; a
	// batch's Service time is the per-packet draw times its packet
	// count.
	Service dist.Distribution
	// Flows is the concurrent flow population, held exactly constant: a
	// retiring flow is replaced by a fresh one the same instant. Churn
	// (and with it rule-table pressure) comes from the flows' finite
	// packet trains, not from a drifting population. The initial
	// population is virtual — a flow gets its state record when a batch
	// first selects it — so a point pays for the flows it touches, not
	// for the population it declares.
	Flows int
	// ElephantFraction is the fraction of spawned flows that are
	// elephants, applied exactly via an error accumulator (a fraction of
	// 0.2 makes every fifth spawn an elephant, not a coin flip).
	ElephantFraction float64
	// RatBatch and ElephantBatch are packets per emitted batch (defaults
	// 4 and 64).
	RatBatch, ElephantBatch int
	// RatTrain and ElephantTrain are packets per flow lifetime (defaults
	// 4 and 1024).
	RatTrain, ElephantTrain int
	// Seed makes the arrival, selection, and service streams
	// reproducible.
	Seed uint64
	// MaxArrivals stops generation after this many batches (0 = run
	// until the engine halts).
	MaxArrivals uint64
	// Pool, when set, recycles Request objects (as in Config).
	Pool *task.Pool
	// FlowPool, when set, recycles Flow records. Records are released by
	// whoever drops a flow's last reference (generator or system) via
	// Flow.ReleaseIfIdle; nil allocates fresh records and leaves them to
	// the GC.
	FlowPool *task.FlowPool
}

// FlowGenerator produces flow-keyed batches on a simulation engine and
// hands them to a sink at their arrival instants.
type FlowGenerator struct {
	// Counters holds the shared arrival accounting (Arrivals, Packets,
	// Flows accessors — the same set the request generator exposes).
	Counters

	eng  *sim.Engine
	cfg  FlowConfig
	rng  *rand.Rand
	sink func(*task.Request)

	// active is the dense live-flow population; batch arrivals index it
	// uniformly and retirement swap-deletes, so selection is O(1) and
	// allocation-free. A nil slot at position i is initial flow i+1, not
	// yet selected by any batch; nil slots never move (the swap-delete
	// materialises the tail before moving it), so position alone
	// identifies them.
	active []*task.Flow
	// initElephant holds one class bit per initial flow: all that Start's
	// pass over the population keeps of a flow no batch has selected.
	initElephant []uint64

	nextReqID  uint64
	nextFlowID task.FlowID
	// elephantCredit is the class error accumulator: += fraction per
	// spawn, an elephant whenever it crosses 1.
	elephantCredit float64
	retiredFlows   uint64
}

// NewFlow creates a flow generator. sink is called exactly at each
// batch's arrival instant.
func NewFlow(eng *sim.Engine, cfg FlowConfig, sink func(*task.Request)) *FlowGenerator {
	if cfg.RPS <= 0 {
		panic("loadgen: RPS must be positive")
	}
	if cfg.Service == nil {
		panic("loadgen: service distribution required")
	}
	if sink == nil {
		panic("loadgen: sink required")
	}
	if cfg.Flows <= 0 {
		panic("loadgen: flow population must be positive")
	}
	if cfg.ElephantFraction < 0 || cfg.ElephantFraction > 1 {
		panic("loadgen: elephant fraction must be in [0, 1]")
	}
	if cfg.RatBatch <= 0 {
		cfg.RatBatch = DefaultRatBatch
	}
	if cfg.ElephantBatch <= 0 {
		cfg.ElephantBatch = DefaultElephantBatch
	}
	if cfg.RatTrain <= 0 {
		cfg.RatTrain = DefaultRatTrain
	}
	if cfg.ElephantTrain <= 0 {
		cfg.ElephantTrain = DefaultElephantTrain
	}
	return &FlowGenerator{
		eng:  eng,
		cfg:  cfg,
		rng:  rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x6d696e64676170)), // "mindgap"
		sink: sink,
	}
}

// Start declares the initial flow population and schedules the first
// batch arrival. Every initial flow's class is fixed here, by the same
// accumulator in the same order as if each were spawned, but only the
// class bit is kept: the record is built by materialise on first
// selection. Generation continues open-loop until MaxArrivals (if set) or
// until the engine halts.
func (g *FlowGenerator) Start() {
	n := g.cfg.Flows
	g.active = make([]*task.Flow, n)
	g.initElephant = make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if g.nextClass() == task.ClassElephant {
			g.initElephant[i/64] |= 1 << (i % 64)
		}
	}
	g.nextFlowID = task.FlowID(n)
	g.flows = uint64(n)
	g.eng.AfterE(expGap(g.rng, g.cfg.RPS), flowGenBatch, g, nil, 0)
}

// Population returns the current number of live flows (constant by
// construction; tests pin it).
func (g *FlowGenerator) Population() int { return len(g.active) }

// RetiredFlows returns how many flows have exhausted their trains.
func (g *FlowGenerator) RetiredFlows() uint64 { return g.retiredFlows }

// nextClass assigns the next spawned flow's class by exact proportion.
//
//mindgap:noalloc
func (g *FlowGenerator) nextClass() task.FlowClass {
	g.elephantCredit += g.cfg.ElephantFraction
	if g.elephantCredit >= 1 {
		g.elephantCredit--
		return task.ClassElephant
	}
	return task.ClassRat
}

// record builds a flow's state record with its class's full train.
//
//mindgap:noalloc
func (g *FlowGenerator) record(id task.FlowID, class task.FlowClass) *task.Flow {
	train := uint32(g.cfg.RatTrain)
	if class == task.ClassElephant {
		train = uint32(g.cfg.ElephantTrain)
	}
	if g.cfg.FlowPool != nil {
		return g.cfg.FlowPool.Get(id, class, train)
	}
	return task.NewFlow(id, class, train)
}

// materialise gives the still-virtual initial flow at slot i its record.
//
//mindgap:noalloc
func (g *FlowGenerator) materialise(i int) *task.Flow {
	class := task.ClassRat
	if g.initElephant[i/64]&(1<<(i%64)) != 0 {
		class = task.ClassElephant
	}
	f := g.record(task.FlowID(i+1), class)
	g.active[i] = f
	return f
}

// spawn starts the flow that replaces a retired one and adds it to the
// live population.
//
//mindgap:noalloc
func (g *FlowGenerator) spawn() {
	g.nextFlowID++
	g.flows++
	g.active = append(g.active, g.record(g.nextFlowID, g.nextClass()))
}

// flowGenBatch fires at each batch arrival instant: pick a live flow
// uniformly, emit one batch of its train, retire-and-replace it if the
// train is exhausted, and schedule the next arrival. Typed event,
// pooled request, pooled flow record, swap-delete population — the
// steady-state path is allocation-free.
//
//mindgap:noalloc
func flowGenBatch(recv, _ any, _ uint64) {
	g := recv.(*FlowGenerator)
	if g.cfg.MaxArrivals > 0 && g.arrivals >= g.cfg.MaxArrivals {
		return
	}
	idx := g.rng.IntN(len(g.active))
	f := g.active[idx]
	if f == nil {
		f = g.materialise(idx)
	}
	batch := uint32(g.cfg.RatBatch)
	if f.Class == task.ClassElephant {
		batch = uint32(g.cfg.ElephantBatch)
	}
	if batch > f.Remaining {
		batch = f.Remaining
	}
	g.nextReqID++
	g.arrivals++
	g.packets += uint64(batch)
	svc := g.cfg.Service.Sample(g.rng) * time.Duration(batch)
	var req *task.Request
	if g.cfg.Pool != nil {
		req = g.cfg.Pool.Get(g.nextReqID, g.eng.Now(), svc)
	} else {
		req = task.New(g.nextReqID, g.eng.Now(), svc)
	}
	req.FlowID = f.ID
	req.FlowState = f
	req.Packets = batch
	f.Remaining -= batch
	f.InFlight++
	if f.Remaining == 0 {
		// Train exhausted: retire the flow and spawn its replacement in
		// the same instant, keeping the population exact. The record
		// itself stays live — at least this batch is still in flight —
		// and is freed by whoever drops its last reference.
		f.Retired = true
		last := len(g.active) - 1
		tail := g.active[last]
		if tail == nil {
			tail = g.materialise(last)
		}
		g.active[idx] = tail
		g.active[last] = nil
		g.active = g.active[:last]
		g.retiredFlows++
		g.spawn()
	}
	g.sink(req)
	g.eng.AfterE(expGap(g.rng, g.cfg.RPS), flowGenBatch, g, nil, 0)
}
