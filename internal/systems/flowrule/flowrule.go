// Package flowrule models the other classic SmartNIC bottleneck: not
// dispatch choice but per-flow offloaded *state*. A NIC rule table
// holds fast-path rules for a bounded number of flows; packets of a
// rule-resident flow traverse the 10 µs hardware fast path, everything
// else climbs to a saturating (and, at the limit, dropping) 80 µs
// software slow path. Rules are installed through a bounded insertion
// pipeline (~200k rules/s) and evicted by LRU when the table fills or
// by idle timeout when a flow goes quiet.
//
// The model follows the chen622/SmartNICSimulator exemplar (bounded
// insertion rate, fast/slow path constants, elephant/rat mixes) and the
// PnO-TCP observation that once per-flow state must live on the NIC,
// state residency — table capacity and insertion rate — gates the tail,
// no matter how clever the dispatcher is. It is the repo's "informed
// scheduling is necessary but not sufficient" counterpoint: the gap
// moves from queue visibility to state visibility.
//
// Steering policy: a flow becomes an offload candidate once the
// classifier has seen Threshold packets of it (static policy), or once
// an adaptive controller — raising the threshold when the insertion
// pipeline overflows, lowering it when the slow path drops — says so.
package flowrule

import (
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/queue"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
	"mindgap/internal/trace"
)

// maxThreshold caps adaptive threshold growth (2^20 packets: far past
// any elephant train, i.e. "offload nothing").
const maxThreshold = 1 << 20

// adaptInterval is the adaptive controller's adjustment period; fastLatency
// is the hardware fast-path transit time and slowLatency the software
// slow-path traversal overhead, paid on top of per-packet processing.
const (
	adaptInterval = time.Millisecond
	fastLatency   = 10 * time.Microsecond
	slowLatency   = 80 * time.Microsecond
)

// Config describes one flow-rule offload deployment.
type Config struct {
	// P is the hardware cost model (client↔NIC wire latency).
	P params.Params
	// Workers is the number of slow-path cores.
	Workers int
	// RuleCapacity bounds the fast-path rule table (default 65536).
	RuleCapacity int
	// InsertRate is the rule-insertion pipeline's drain rate in rules
	// per second (default 200000, the exemplar's MAX_OFFLOAD_SPEED).
	InsertRate float64
	// InsertQueueCap bounds the insertion pipeline's backlog; offload
	// requests beyond it are refused and counted (default 1024).
	InsertQueueCap int
	// Threshold is the static offload threshold: a flow becomes an
	// offload candidate once the classifier has seen this many of its
	// packets (default 16).
	Threshold int
	// Adaptive enables the adaptive threshold controller.
	Adaptive bool
	// IdleTimeout evicts rules whose flow has been quiet this long
	// (default 100ms).
	IdleTimeout time.Duration
	// SlowQueueCap bounds the slow-path queue in batches; arrivals
	// beyond it are dropped (default 4096).
	SlowQueueCap int
}

// FlowRule is the simulated flow-rule offload system.
type FlowRule struct {
	eng  *sim.Engine
	cfg  Config
	done func(*task.Request)
	pr   *probe.Probe

	wire       time.Duration // client↔NIC one-way propagation
	insertCost time.Duration // pipeline service time per rule
	idleEvery  time.Duration // idle-eviction sweep period

	onWire  int // batches injected, not yet classified
	slowQ   queue.FIFO[*task.Request]
	servers []*slowServer

	pending   queue.FIFO[*task.Flow]
	inserting bool

	// The rule table is an intrusive LRU list over resident Flow
	// records: head is least recent, tail most recent. No map — the
	// lookup is the FlowState pointer each request already carries.
	lruHead, lruTail *task.Flow
	resident         int
	threshold        int

	fastBatches, slowBatches, dropBatches uint64
	fastPackets, slowPackets, dropPackets uint64
	insertions, lruEvictions, idleEvictions,
	overOffload, adjustments uint64
	lastOver, lastDrops uint64
}

type slowServer struct {
	sys  *FlowRule
	id   int
	busy bool
	// busyUntil is when the batch in service (or, on an idle core, the
	// last one) finishes: the ground truth the decision audit grades a
	// slow-path dispatch against.
	busyUntil   sim.Time
	track       stats.BusyTracker
	completions uint64
}

// New builds the system. done runs when the client receives each
// response; pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *FlowRule {
	if cfg.Workers <= 0 {
		panic("flowrule: need slow-path workers")
	}
	if done == nil {
		panic("flowrule: need a completion callback")
	}
	if cfg.RuleCapacity <= 0 {
		cfg.RuleCapacity = 65536
	}
	if cfg.InsertRate <= 0 {
		cfg.InsertRate = 200_000
	}
	if cfg.InsertQueueCap <= 0 {
		cfg.InsertQueueCap = 1024
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 16
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 100 * time.Millisecond
	}
	if cfg.SlowQueueCap <= 0 {
		cfg.SlowQueueCap = 4096
	}
	s := &FlowRule{
		eng: eng, cfg: cfg, done: done, pr: pr,
		wire:       cfg.P.ClientWireOneWay,
		insertCost: time.Duration(float64(time.Second) / cfg.InsertRate),
		threshold:  cfg.Threshold,
	}
	if s.insertCost <= 0 {
		s.insertCost = 1
	}
	for i := 0; i < cfg.Workers; i++ {
		s.servers = append(s.servers, &slowServer{sys: s, id: i})
	}
	if cfg.IdleTimeout > 0 {
		s.idleEvery = cfg.IdleTimeout / 4
		if s.idleEvery <= 0 {
			s.idleEvery = 1
		}
		eng.AfterE(s.idleEvery, frIdleTick, s, nil, 0)
	}
	if cfg.Adaptive {
		eng.AfterE(adaptInterval, frAdaptTick, s, nil, 0)
	}
	return s
}

// RegisterTelemetry exposes the rule table's packet split on reg: packets
// steered to the fast path, to the slow path, and dropped.
func (s *FlowRule) RegisterTelemetry(reg *telemetry.Registry) {
	reg.GaugeFunc("flowrule", "fast_packets", func() float64 { return float64(s.fastPackets) })
	reg.GaugeFunc("flowrule", "slow_packets", func() float64 { return float64(s.slowPackets) })
	reg.GaugeFunc("flowrule", "drop_packets", func() float64 { return float64(s.dropPackets) })
}

// Name implements the experiment System interface.
func (s *FlowRule) Name() string { return "flowrule" }

// Inject admits a client batch at the current instant; it reaches the
// NIC classifier one wire delay later.
func (s *FlowRule) Inject(req *task.Request) {
	s.onWire++
	s.eng.AfterE(s.wire, frIngress, s, req, 0)
}

// Ledger implements scenario.System. The probe opens a batch's record at
// classification, so batches still on the client wire count as arrived
// here; installed and pending rules are the flow records the system holds,
// and its idle and adapt ticks and insertion pipeline its own events.
func (s *FlowRule) Ledger() probe.Ledger {
	l := s.pr.Ledger()
	l.Arrived += uint64(s.onWire)
	l.Flows = s.resident + s.pending.Len()
	l.Events = 3
	return l
}

// frIngress fires when a batch reaches the NIC: the classifier's
// rule-table lookup and fast/slow steering decision. This is the hot
// path — one pointer chase, no map, no allocation.
//
//mindgap:noalloc
func frIngress(recv, obj any, _ uint64) {
	s := recv.(*FlowRule)
	req := obj.(*task.Request)
	s.onWire--
	f := req.FlowState
	// The state record may be recycled the instant its last reference
	// drops; classification is the only place this system touches it.
	req.FlowState = nil
	pkts := uint64(req.Packets)
	if pkts == 0 {
		pkts = 1
	}
	now := s.eng.Now()
	if f != nil {
		f.InFlight--
		f.Seen += pkts
		if f.Resident {
			s.touch(f, now)
			s.fastBatches++
			s.fastPackets += pkts
			f.ReleaseIfIdle()
			s.pr.Arrive(req.Arrival, req.ID, 0)
			s.pr.Ingress(now, req.ID)
			s.pr.Dispatch(now, req.ID, -1)
			s.eng.AfterE(fastLatency, frFastDone, s, req, 0)
			return
		}
		s.maybeOffload(f)
		f.ReleaseIfIdle()
	}
	if s.slowQ.Len() >= s.cfg.SlowQueueCap {
		s.dropBatches++
		s.dropPackets += pkts
		s.pr.Arrive(req.Arrival, req.ID, req.Service)
		s.pr.Drop(now, req.ID, -1, trace.DropQueueCap)
		return
	}
	s.slowBatches++
	s.slowPackets += pkts
	s.pr.Arrive(req.Arrival, req.ID, req.Service)
	s.pr.Ingress(now, req.ID)
	s.pr.Enqueue(now, req.ID)
	s.slowQ.Push(req)
	s.kickServers()
}

// maybeOffload requests a rule insertion for a flow the classifier just
// saw on the slow path, if the steering policy says it has earned one
// and the insertion pipeline has room.
//
//mindgap:noalloc
func (s *FlowRule) maybeOffload(f *task.Flow) {
	if f.Resident || f.PendingInsert || f.Retired {
		return
	}
	if f.Seen < uint64(s.threshold) {
		return
	}
	if s.pending.Len() >= s.cfg.InsertQueueCap {
		// The insertion pipeline is saturated: refuse, count, and let
		// the flow's next slow-path batch retry.
		s.overOffload++
		return
	}
	f.PendingInsert = true
	s.pending.Push(f)
	s.kickInserter()
}

// kickInserter starts the insertion pipeline if it is idle and has
// work: one rule per 1/InsertRate seconds.
//
//mindgap:noalloc
func (s *FlowRule) kickInserter() {
	if s.inserting || s.pending.Len() == 0 {
		return
	}
	s.inserting = true
	s.eng.AfterE(s.insertCost, frInsertDone, s, nil, 0)
}

// frInsertDone fires when the pipeline finishes one rule.
//
//mindgap:noalloc
func frInsertDone(recv, _ any, _ uint64) {
	s := recv.(*FlowRule)
	s.inserting = false
	if f, ok := s.pending.Pop(); ok {
		f.PendingInsert = false
		if f.Retired {
			// The flow ended while its rule was in the pipeline:
			// installing it would only waste a table slot.
			f.ReleaseIfIdle()
		} else {
			s.install(f)
		}
	}
	s.kickInserter()
}

// install makes a flow rule-resident, evicting the LRU rule first if
// the table is full.
//
//mindgap:noalloc
func (s *FlowRule) install(f *task.Flow) {
	if s.resident >= s.cfg.RuleCapacity {
		s.evict(s.lruHead, &s.lruEvictions)
	}
	f.Resident = true
	f.LastHit = s.eng.Now()
	s.lruAppend(f)
	s.resident++
	s.insertions++
}

// evict removes a resident rule and releases the record if the flow is
// otherwise dead.
//
//mindgap:noalloc
func (s *FlowRule) evict(f *task.Flow, counter *uint64) {
	s.lruUnlink(f)
	f.Resident = false
	s.resident--
	*counter = *counter + 1
	f.ReleaseIfIdle()
}

// lruAppend links f as most-recently-used (tail).
//
//mindgap:noalloc
func (s *FlowRule) lruAppend(f *task.Flow) {
	f.LRUPrev = s.lruTail
	f.LRUNext = nil
	if s.lruTail != nil {
		s.lruTail.LRUNext = f
	} else {
		s.lruHead = f
	}
	s.lruTail = f
}

// lruUnlink removes f from the recency list.
//
//mindgap:noalloc
func (s *FlowRule) lruUnlink(f *task.Flow) {
	if f.LRUPrev != nil {
		f.LRUPrev.LRUNext = f.LRUNext
	} else {
		s.lruHead = f.LRUNext
	}
	if f.LRUNext != nil {
		f.LRUNext.LRUPrev = f.LRUPrev
	} else {
		s.lruTail = f.LRUPrev
	}
	f.LRUPrev, f.LRUNext = nil, nil
}

// touch records a fast-path hit: move to most-recent and stamp the
// idle-eviction clock.
//
//mindgap:noalloc
func (s *FlowRule) touch(f *task.Flow, now sim.Time) {
	f.LastHit = now
	if s.lruTail == f {
		return
	}
	s.lruUnlink(f)
	s.lruAppend(f)
}

// frFastDone fires when a fast-path batch has transited the hardware
// path.
//
//mindgap:noalloc
func frFastDone(recv, obj any, _ uint64) {
	s := recv.(*FlowRule)
	req := obj.(*task.Request)
	now := s.eng.Now()
	// The hardware path has no worker: landing, starting and completing
	// coincide at the end of the transit.
	s.pr.HostArrive(now, req.ID)
	s.pr.Start(now, req.ID, -1)
	s.pr.Complete(now, req.ID, -1)
	s.eng.AfterE(s.wire, frRespond, s, req, 0)
}

// kickServers hands queued slow-path batches to idle cores.
//
//mindgap:noalloc
func (s *FlowRule) kickServers() {
	for _, w := range s.servers {
		if s.slowQ.Len() == 0 {
			return
		}
		if !w.busy {
			w.start()
		}
	}
}

// start pops the next batch and runs it to completion — the slow path
// does per-packet software processing, so a batch's cost is its
// pre-stamped Service time.
//
//mindgap:noalloc
func (w *slowServer) start() {
	s := w.sys
	req, ok := s.slowQ.Pop()
	if !ok {
		return
	}
	now := s.eng.Now()
	s.pr.Dispatch(now, req.ID, w.id)
	// The slow path pulls from one central queue, so only an idle core
	// ever takes a batch: the audit grades the dispatch (uninformed — no
	// core reports its load) against every core's remaining batch time.
	if truth := s.pr.AuditTruth(len(s.servers)); truth != nil {
		for i, o := range s.servers {
			truth[i] = max(int64(o.busyUntil.Sub(now)), 0)
		}
		s.pr.Audit(attr.Decision{At: now, ReqID: req.ID, Chosen: w.id, Truth: truth})
	}
	w.busy = true
	w.busyUntil = now.Add(req.Service)
	w.track.SetBusy(now, true)
	s.pr.Start(now, req.ID, w.id)
	s.eng.AfterE(req.Service, frSlowDone, w, req, 0)
}

// frSlowDone fires when a slow-path core finishes a batch's per-packet
// processing; the batch then pays the slow-path traversal overhead and
// the wire back to the client.
//
//mindgap:noalloc
func frSlowDone(recv, obj any, _ uint64) {
	w := recv.(*slowServer)
	s := w.sys
	req := obj.(*task.Request)
	now := s.eng.Now()
	w.completions++
	w.busy = false
	w.track.SetBusy(now, false)
	s.pr.Complete(now, req.ID, w.id)
	s.eng.AfterE(slowLatency+s.wire, frRespond, s, req, 0)
	if s.slowQ.Len() > 0 {
		w.start()
	}
}

// frRespond fires when a response reaches the client.
//
//mindgap:noalloc
func frRespond(recv, obj any, _ uint64) {
	s := recv.(*FlowRule)
	req := obj.(*task.Request)
	s.pr.Respond(s.eng.Now(), req.ID)
	s.done(req)
}

// frIdleTick is the periodic idle-eviction sweep. LRU order is idle
// order — the least-recently-hit rule is at the head — so the sweep
// pops from the head until it reaches a live-enough rule.
//
//mindgap:noalloc
func frIdleTick(recv, _ any, _ uint64) {
	s := recv.(*FlowRule)
	now := s.eng.Now()
	for s.lruHead != nil && now.Sub(s.lruHead.LastHit) >= s.cfg.IdleTimeout {
		s.evict(s.lruHead, &s.idleEvictions)
	}
	s.eng.AfterE(s.idleEvery, frIdleTick, s, nil, 0)
}

// frAdaptTick is the adaptive threshold controller: insertion-pipeline
// overflow means the policy offloads too eagerly (raise the bar);
// slow-path drops with a healthy pipeline mean it offloads too little
// (lower it). Integer arithmetic only — the controller is part of the
// deterministic scenario identity.
//
//mindgap:noalloc
func frAdaptTick(recv, _ any, _ uint64) {
	s := recv.(*FlowRule)
	over := s.overOffload - s.lastOver
	drops := s.dropBatches - s.lastDrops
	s.lastOver, s.lastDrops = s.overOffload, s.dropBatches
	switch {
	case over > 0 && s.threshold < maxThreshold:
		s.threshold *= 2
		s.adjustments++
	case drops > 0 && s.threshold > 1:
		s.threshold /= 2
		s.adjustments++
	}
	s.eng.AfterE(adaptInterval, frAdaptTick, s, nil, 0)
}

// WorkerIdleFraction returns the mean idle fraction across the
// slow-path cores (the fast path consumes no cores — that is the point
// of offloading).
func (s *FlowRule) WorkerIdleFraction(now sim.Time) float64 {
	var sum float64
	for _, w := range s.servers {
		sum += w.track.IdleFraction(now)
	}
	return sum / float64(len(s.servers))
}

// ArmWorkerTrackers starts busy-time accounting at now.
func (s *FlowRule) ArmWorkerTrackers(now sim.Time) {
	for _, w := range s.servers {
		w.track.Arm(now)
	}
}

// Completions returns total slow-path batch completions.
func (s *FlowRule) Completions() uint64 {
	var n uint64
	for _, w := range s.servers {
		n += w.completions
	}
	return n
}

// FastPackets, SlowPackets and DropPackets return packet counts by steering
// outcome; FastBatches, SlowBatches and DroppedBatches the batch counts.
func (s *FlowRule) FastPackets() uint64    { return s.fastPackets }
func (s *FlowRule) SlowPackets() uint64    { return s.slowPackets }
func (s *FlowRule) DropPackets() uint64    { return s.dropPackets }
func (s *FlowRule) FastBatches() uint64    { return s.fastBatches }
func (s *FlowRule) SlowBatches() uint64    { return s.slowBatches }
func (s *FlowRule) DroppedBatches() uint64 { return s.dropBatches }

// Insertions returns completed rule installations; LRUEvictions and
// IdleEvictions the evictions by cause; OverOffload the offload
// requests refused by a full insertion pipeline.
func (s *FlowRule) Insertions() uint64    { return s.insertions }
func (s *FlowRule) LRUEvictions() uint64  { return s.lruEvictions }
func (s *FlowRule) IdleEvictions() uint64 { return s.idleEvictions }
func (s *FlowRule) OverOffload() uint64   { return s.overOffload }

// Resident returns the current rule-table occupancy; Threshold the
// current offload threshold (static, or the adaptive controller's
// latest value); Adjustments how many times the controller moved it.
func (s *FlowRule) Resident() int       { return s.resident }
func (s *FlowRule) Threshold() int      { return s.threshold }
func (s *FlowRule) Adjustments() uint64 { return s.adjustments }
