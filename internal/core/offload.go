package core

import (
	"fmt"
	"time"

	"mindgap/internal/cores"
	"mindgap/internal/fabric"
	"mindgap/internal/faults"
	"mindgap/internal/nicmodel"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
	"mindgap/internal/trace"
)

// OffloadConfig describes one Shinjuku-Offload deployment (§3.4).
type OffloadConfig struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the number of host worker cores (the offload frees the
	// host cores the vanilla system burns on networking + dispatch, which
	// is why the paper's figures give Shinjuku-Offload one extra worker).
	Workers int
	// Outstanding is the per-worker outstanding-request limit k of the
	// queuing optimization (§3.4.5, Figure 3).
	Outstanding int
	// Slice is the preemption quantum; zero disables preemption (the
	// paper's fixed-service-time figures turn preemption off).
	Slice time.Duration
	// Policy is the worker-selection policy; the paper's prototype uses
	// LeastOutstanding (idle-first FIFO dispatch). InformedLeastLoaded
	// turns on the host→NIC load reports it reads: every FINISH and
	// PREEMPTED carries the worker's backlog, and a start sends its own
	// report only when the backlog differs from the last one the worker
	// sent.
	Policy Policy
	// DirectInterrupts is the §5.1 ablation that changes a mechanism: the
	// NIC posts preemption interrupts to cores directly instead of workers
	// arming local APIC timers, delivered after P.CXLOneWay. The ablations
	// that only change costs (coherent NIC↔host memory, a line-rate
	// scheduler, §5.2 DDIO-to-L1) are calibrations of P.
	DirectInterrupts bool
	// DispatchBurst is the queue-manager core's DPDK-style burst size: how
	// many events it drains from one input ring before polling the other
	// (0 or 1 alternates fairly; rx_burst-sized batches delay credit
	// handling under a flood of arrivals, the Figure 3 burst ablation).
	DispatchBurst int
	// PriorityClasses > 1 splits the central queue into strict priority
	// classes (§2.2's co-located latency classes); ClassOf maps each
	// request to a class in [0, PriorityClasses), highest first.
	PriorityClasses int
	ClassOf         func(*task.Request) int
	// Affinity makes the scheduler resume preempted requests on the worker
	// that last ran them when possible (§3.1 cache affinity), avoiding the
	// CtxMigratePenalty of pulling the context across cores.
	Affinity bool
	// FaultSpec, when set, injects the deterministic fault schedule (NIC
	// crash/slowdown windows, NIC↔host loss/latency bursts, worker stalls)
	// and the timeout/retry and degradation machinery it configures, seeded
	// by FaultSeed; each Offload compiles its own schedule, so concurrent
	// points share no fault state. Nil leaves the healthy path untouched.
	FaultSpec *faults.Spec
	FaultSeed uint64
}

// qEventKind tags events entering the queue-manager ARM core.
type qEventKind uint8

const (
	evNew qEventKind = iota
	evFinish
	evPreempted
	evLoad
	// evTimeout is a dispatch-timeout expiry: no ack came back in time.
	evTimeout
)

// qEvent is one input to a dispatcher stage: Offload's queue manager or
// Central's.
type qEvent struct {
	kind   qEventKind
	worker int
	req    *task.Request
	// id is req.ID snapshotted while the sender still owned a live request:
	// by the time a FINISH crosses the NIC the response may have recycled
	// req into another request, so Recovery is keyed by this snapshot. (req
	// stays the attempt token: pointers are stable across recycling.)
	id uint64
	// load is the worker's backlog (ns) when the frame was built: evLoad's
	// report, and the one FINISH and PREEMPTED carry along.
	load int64
}

// degradedReq wraps a request hash-steered directly to a worker VF while
// the NIC ARM cores are down: the worker runs it to completion and skips
// the FINISH notification (no credit was consumed for it).
type degradedReq struct {
	req *task.Request
}

// flight is the transport's half of one Recovery record, indexed by its
// slot: the dispatch timer, the expiry it submits (which attempt on which
// worker it guards), and the request as dispatched — a retry clone copies
// its identity from here, not from the pointer, which may be recycled.
type flight struct {
	timer  sim.Timer
	expiry qEvent
	orig   task.Request
}

// Dispatcher input classes, polled round-robin: new requests (the
// networker's ring) and worker notifications (the RX core's ring, Central's
// flags).
const (
	qcNew = iota
	qcNotif
)

// Offload is the simulated Shinjuku-Offload system: Logic running on a
// modelled Broadcom Stingray, dispatching to host worker cores over
// packet-based NIC↔host links.
//
// The packet path (Figure 1) is modelled stage by stage:
//
//	client ──wire──▶ NIC port ──▶ networker(ARM) ──shm──▶ queue mgr(ARM)
//	     ──shm──▶ TX core(ARM) ──2.56µs──▶ worker RX ring ──▶ worker core
//	worker ──2.56µs──▶ RX core(ARM) ──shm──▶ queue mgr(ARM)   [notifications]
//	worker ──wire──▶ client                                    [responses]
//
// The networker, TX and RX cores are FIFO servers with a fixed cost, so
// each is one fabric.Link with the ring beside it: a request crosses
// networker and ring in one event, and a dispatch crosses ring, TX core and
// the NIC in one, computed when the queue manager emits it.
type Offload struct {
	// Host is the shared host-worker kit: the client wire, the worker
	// cores and the worker-set surface. Each core's inbox is its VF ring.
	*cores.Host
	eng  *sim.Engine
	cfg  OffloadConfig
	lgc  *Logic
	done func(*task.Request)
	// pr is the lifecycle probe; the drop accessors and the audit's ledger
	// read its counts back.
	pr *probe.Probe

	// flt is the compiled fault schedule (nil on the healthy path); rec the
	// loss-recovery protocol (nil without a timeout), flights its slots.
	flt     *faults.Schedule
	rec     *Recovery[uint64, *task.Request]
	flights []*flight

	// Fault-layer counters: the accessors and the audit's ledger read them.
	retries       uint64
	degradedCount uint64
	dupResponses  uint64

	// netq is the networker core and the net→q ring behind it, tx the TX
	// core, entered at the far end of the q→tx ring, and rxq the RX core
	// and the rx→q ring; the queue manager alone is event-driven.
	netq     *fabric.Link
	queueMgr *fabric.MultiStage[qEvent]
	tx       *fabric.Link
	rxq      *fabric.Link

	// nic is the modelled Stingray datapath; armFn is the ARM complex's
	// interface (notifications from workers land here) and each worker
	// owns one SR-IOV virtual function (§3.4.2).
	nic   *nicmodel.NIC
	armFn *nicmodel.Function

	workers []*offWorker

	// asScratch is the reusable assignment buffer handed to the scheduler
	// logic's *To methods: one queue event's assignments are consumed
	// synchronously before the next event runs, so a single buffer serves
	// the whole run.
	asScratch []Assignment
	// qevFree recycles the heap boxes that carry qEvent values inside
	// Frame/event payloads (a struct stored in an `any` would otherwise
	// allocate per notification). Boxes are created on demand, so the free
	// list self-bounds at the peak number of in-flight notifications.
	qevFree []*qEvent
}

// offWorker is one host worker core's channel to the NIC: the kit core
// plus its SR-IOV virtual function, whose RX descriptor ring is where the
// dispatcher stashes requests (§3.4.5) and therefore the core's inbox.
type offWorker struct {
	sys *Offload
	*cores.Worker
	vf *nicmodel.Function
	// sent is the backlog the last notification carried (-1 before the
	// first): a start reports only a backlog the NIC has not been sent.
	sent int64
	// curDegraded marks the request last picked up as hash-steered while
	// the NIC was down: run to completion, no FINISH notification.
	curDegraded bool
}

// qevGet borrows a qEvent box from the free list.
func (s *Offload) qevGet() *qEvent {
	if n := len(s.qevFree); n > 0 {
		qe := s.qevFree[n-1]
		s.qevFree[n-1] = nil
		s.qevFree = s.qevFree[:n-1]
		return qe
	}
	return new(qEvent)
}

// qevPut returns a box once its value has been copied out.
//
//mindgap:noalloc
func (s *Offload) qevPut(qe *qEvent) {
	*qe = qEvent{}
	s.qevFree = append(s.qevFree, qe)
}

// NewOffload builds the system on eng. done is invoked at the instant the
// client receives each response; pr (optional) carries the run's observers.
func NewOffload(eng *sim.Engine, cfg OffloadConfig, pr *probe.Probe, done func(*task.Request)) *Offload {
	if cfg.Outstanding <= 0 {
		cfg.Outstanding = 1
	}
	if pr == nil {
		pr = &probe.Probe{} // TimeoutDrops reads its counts back
	}
	p := cfg.P
	s := &Offload{eng: eng, cfg: cfg, done: done, pr: pr}
	s.lgc = NewLogic(cfg.Workers, cfg.Outstanding, cfg.Policy)
	if cfg.PriorityClasses > 1 {
		s.lgc.SetClasses(cfg.PriorityClasses, cfg.ClassOf)
	}
	if cfg.Affinity {
		s.lgc.EnableAffinity()
	}
	if cfg.FaultSpec != nil && !cfg.FaultSpec.Empty() {
		if cfg.DirectInterrupts {
			panic("core: fault injection is incompatible with DirectInterrupts (posted interrupts cannot reconstruct stalled progress)")
		}
		s.flt = faults.New(*cfg.FaultSpec, cfg.FaultSeed)
		if s.flt.Timeout() > 0 {
			s.rec = NewRecovery[uint64, *task.Request](s.flt.Retries(), true)
			done = s.respond
		}
	}
	s.Host = cores.NewHost(eng, cores.HostConfig{
		P: p, Workers: cfg.Workers, Pickup: p.PickupCost(),
		Slice: cfg.Slice, SelfArm: !cfg.DirectInterrupts,
	}, pr, s.admit, done)
	s.Started, s.Finished, s.Preempted, s.Account = s.started, s.finished, s.preempted, s.account

	// The networker and its ring are the rest of the front: only the client
	// wire feeds them.
	s.netq = fabric.NewLink(eng, "arm-networker", fabric.LinkConfig{Cost: p.ArmNetworkerCost, Latency: p.ArmShm, Front: true})
	var skip func(from, to sim.Time) bool
	if s.flt != nil && s.flt.Degrade() {
		skip = s.flt.NICDown
	}
	s.Front(s.netq, skip, s.steerDegraded)
	s.tx = fabric.NewLink(eng, "arm-tx", fabric.LinkConfig{Cost: p.ArmTxCost})
	s.rxq = fabric.NewLink(eng, "arm-rx", fabric.LinkConfig{Cost: p.ArmRxCost, Latency: p.ArmShm})

	// The queue-manager core round-robins between its two input rings so a
	// saturating arrival flood cannot starve worker notifications.
	s.queueMgr = fabric.NewMultiStage[qEvent](eng, "arm-queue", 2, nil,
		func(ev qEvent) time.Duration {
			switch ev.kind {
			case evFinish, evLoad:
				return p.ArmCreditCost
			default:
				return p.ArmQueueCost
			}
		},
		s.handleQueueEvent)
	if cfg.DispatchBurst > 1 {
		s.queueMgr.SetBurst(cfg.DispatchBurst)
	}

	// The Stingray datapath: every dispatcher↔worker message is an
	// Ethernet frame steered by destination MAC through the NIC with the
	// measured 2.56 µs one-way latency (§3.3).
	nicCfg := nicmodel.Config{InternalLatency: p.NicHostOneWay}
	if s.flt != nil && s.flt.HasLinkFaults() {
		nicCfg.LinkFault = s.flt.LinkFault
	}
	s.nic = nicmodel.New(eng, nicCfg)
	s.armFn = s.nic.AddFunction("arm", nicmodel.MACForIndex(0), 0)
	// The RX ARM core drains the ring as frames land and queues them in its
	// own pipe.
	s.armFn.DrainTo(s.rxq, shmNotif, s)

	if s.flt != nil {
		// Every ARM-complex stage shares the NIC crash/slowdown timeline
		// (nil without NIC windows): a crashed ARM complex freezes the
		// networker, queue manager, TX and RX cores together.
		st := s.flt.NICStretch()
		s.netq.SetStretch(st)
		s.queueMgr.SetStretch(st)
		s.tx.SetStretch(st)
		s.rxq.SetStretch(st)
	}
	for i, kw := range s.Host.Workers {
		w := &offWorker{sys: s, Worker: kw, sent: -1}
		if s.flt != nil {
			w.SetStretch(s.flt.WorkerStretch(i))
		}
		// The VF ring holds the stashed requests; credits guarantee it
		// never overflows, and the +1 headroom plus drop accounting guard
		// the invariant.
		w.vf = s.nic.AddFunction(fmt.Sprintf("w%d", i),
			nicmodel.MACForIndex(i+1), cfg.Outstanding+1)
		w.UseRing(cores.Inbox{Len: w.vf.Pending, Pop: w.pop})
		w.vf.OnRx(w.Wake)
		w.vf.OnDrop(func(f nicmodel.Frame) { s.dropDegraded(f, w.ID, trace.DropRingOverflow) })
		w.vf.OnWireDrop(func(f nicmodel.Frame) { s.dropDegraded(f, w.ID, trace.DropWireFault) })
		w.vf.OnDeliver(func(f nicmodel.Frame) {
			req, _ := frameReq(f)
			w.Land(req)
		})
		s.workers = append(s.workers, w)
	}
	return s
}

// RegisterTelemetry wires the components' gauges into reg, each under its
// component's name. Call it once, before the simulation starts.
func (s *Offload) RegisterTelemetry(reg *telemetry.Registry) {
	s.lgc.RegisterTelemetry(reg, "sched")
	s.netq.RegisterGauge(reg, "arm-networker", "processed", fabric.Served)
	s.queueMgr.RegisterTelemetry(reg, "arm-queue")
	s.tx.RegisterGauge(reg, "arm-tx", "processed", fabric.Served)
	s.rxq.RegisterGauge(reg, "arm-rx", "processed", fabric.Served)
	s.netq.RegisterTelemetry(reg, "fabric/shm-net→q")
	s.tx.RegisterGauge(reg, "fabric/shm-q→tx", "delivered", fabric.Entered)
	s.rxq.RegisterTelemetry(reg, "fabric/shm-rx→q")
	s.nic.RegisterTelemetry(reg)
	s.Host.RegisterTelemetry(reg)
}

// Name implements the experiment System interface: "shinjuku-offload"
// stock, "idealnic/directirq" with the NIC posting preemption interrupts.
func (s *Offload) Name() string {
	if s.cfg.DirectInterrupts {
		return "idealnic/directirq"
	}
	return "shinjuku-offload"
}

// admit runs when a new request has crossed the networker core and the
// networker→queue-manager shared-memory ring. A request reaching the NIC
// port while the ARM cores are down skips them for steerDegraded (Front).
//
//mindgap:noalloc
func (s *Offload) admit(req *task.Request) {
	s.queueMgr.Submit(qcNew, qEvent{kind: evNew, req: req, id: req.ID})
}

// shmNotif fires when a worker notification has crossed the RX core and the
// RX-core→queue-manager shared-memory ring; the borrowed box returns to the
// pool here.
//
//mindgap:noalloc
func shmNotif(recv, obj any, _ uint64) {
	s := recv.(*Offload)
	qe := obj.(*qEvent)
	ev := *qe
	s.qevPut(qe)
	s.queueMgr.Submit(qcNotif, ev)
}

// steerDegraded hash-steers a request to a worker VF at the NIC port,
// bypassing the ARM pipeline: the MAC-steering hardware outlives the ARM
// cores, so the NIC falls back to RSS-style hash steering instead of
// queueing behind a dead dispatcher. Informed scheduling is lost; goodput
// is not. No credit is consumed and no FINISH notification will be sent;
// overflowing the VF ring sheds the request (graceful shedding).
//
//mindgap:noalloc
func (s *Offload) steerDegraded(req *task.Request) {
	w := s.workers[int(steerHash(req)%uint64(len(s.workers)))]
	s.degradedCount++
	s.pr.Dispatch(s.eng.Now(), req.ID, w.ID)
	s.nic.Send(nicmodel.Frame{
		Dst:     w.vf.MAC(),
		Src:     s.armFn.MAC(),
		Bytes:   s.cfg.P.RequestFrameBytes,
		Payload: degradedReq{req: req},
	})
}

// steerHash is the RSS-style steering hash: the flow key when present
// (what real RSS hashes — the 5-tuple), else the request ID, mixed
// through a 64-bit finalizer so consecutive IDs spread across workers.
//
//mindgap:noalloc
func steerHash(req *task.Request) uint64 {
	h := req.Key
	if h == 0 {
		h = req.ID
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// respond stands in for done under timeout/retry, where a slow original
// and its retry clone can both finish: the client sees one response per ID.
//
//mindgap:noalloc
func (s *Offload) respond(req *task.Request) {
	if s.rec.Responded(req.ID) == Duplicate {
		s.dupResponses++
		return
	}
	s.done(req)
}

// account is the host's Account hook: the credits, and under recovery what
// Recovery believes; a response it refused as a duplicate answered no one.
func (s *Offload) account(l *probe.Ledger) {
	l.K, l.Outstanding, l.Retries = s.lgc.k, s.lgc.outstanding, s.retries
	l.Responded -= s.dupResponses
	if s.rec != nil {
		l.Believed, l.Stubs = s.rec.census(len(s.workers))
	}
}

// frameReq unwraps the request a worker-bound frame carries and whether it
// was degraded-steered (no credit, no FINISH notification).
//
//mindgap:noalloc
func frameReq(f nicmodel.Frame) (req *task.Request, degraded bool) {
	if d, ok := f.Payload.(degradedReq); ok {
		return d.req, true
	}
	return f.Payload.(*task.Request), false
}

// dropDegraded records the terminal loss of a degraded-steered frame: at a
// full VF ring (only degraded frames can legally overflow it — credits
// bound normal dispatches) or to an injected fabric fault. Nothing retries
// a degraded frame, so the request silently vanishes unless recorded here;
// a credited dispatch lost the same way is Recovery's to retry or abandon.
//
//mindgap:noalloc
func (s *Offload) dropDegraded(f nicmodel.Frame, worker int, reason trace.DropReason) {
	if req, deg := frameReq(f); deg {
		s.pr.Drop(s.eng.Now(), req.ID, worker, reason)
	}
}

// handleQueueEvent runs on the queue-manager ARM core.
//
//mindgap:noalloc
func (s *Offload) handleQueueEvent(ev qEvent) {
	as := s.asScratch[:0]
	now := s.eng.Now()
	switch ev.kind {
	case evNew:
		s.pr.Enqueue(now, ev.id)
		as = s.lgc.EnqueueTo(as, now, ev.req)
	case evFinish:
		s.loadArrived(now, ev)
		if s.rec != nil && !s.acked(s.rec.Finish(ev.id, ev.req, ev.worker)) {
			return
		}
		as = s.lgc.CompleteTo(as, ev.worker)
	case evPreempted:
		s.loadArrived(now, ev)
		if s.rec != nil && !s.acked(s.rec.Preempted(ev.id, ev.req, ev.worker)) {
			return
		}
		s.pr.Enqueue(now, ev.id)
		as = s.lgc.PreemptedTo(as, now, ev.worker, ev.req)
	case evLoad:
		s.loadArrived(now, ev)
	case evTimeout:
		as = s.expired(as, now, ev)
	}
	for _, a := range as {
		s.pr.Dispatch(now, a.Req.ID, a.Worker)
		auditDispatch(s.pr, s.Host, s.lgc, now, a)
		if s.rec != nil {
			s.armTimeout(a)
		}
		// The assignment crosses the q→tx ring and waits for the TX core,
		// whose frame enters the NIC as it finishes.
		out, _ := s.tx.Enter(now.Add(s.cfg.P.ArmShm), 0)
		w := s.workers[a.Worker]
		s.nic.SendAt(out, nicmodel.Frame{
			Dst:     w.vf.MAC(),
			Src:     s.armFn.MAC(),
			Bytes:   s.cfg.P.ControlFrameBytes,
			Payload: a.Req,
		})
	}
	s.asScratch = as[:0]
}

// loadArrived applies the backlog a worker notification carries; a FINISH
// or PREEMPTED applies it whatever Recovery makes of the notification, as
// the load is news either way.
//
//mindgap:noalloc
func (s *Offload) loadArrived(now sim.Time, ev qEvent) {
	if s.cfg.Policy == InformedLeastLoaded {
		s.lgc.ReportLoadAt(now, ev.worker, ev.load)
	}
}

// acked applies Recovery's verdict on a FINISH or PREEMPTED: a stale one's
// credit was already reclaimed; an accepted one disarms the dispatch timer.
//
//mindgap:noalloc
func (s *Offload) acked(v Verdict, slot int) bool {
	if v == Stale {
		return false
	}
	s.flights[slot].timer.Stop()
	return true
}

// armTimeout reports a dispatch to Recovery and arms its timeout. The
// expiry goes through the notification ring, so it pays ARM queueing and
// crash-window stretch (a dead dispatcher cannot retry until it recovers).
func (s *Offload) armTimeout(a Assignment) {
	slot, attempt := s.rec.Dispatched(a.Req.ID, a.Req, a.Worker)
	if slot == len(s.flights) {
		s.flights = append(s.flights, new(flight))
	}
	fl := s.flights[slot]
	fl.expiry = qEvent{kind: evTimeout, worker: a.Worker, req: a.Req, id: a.Req.ID}
	fl.orig = *a.Req
	s.eng.ArmAfterE(&fl.timer, s.flt.AttemptTimeout(attempt), flightTimeout, s, fl, 0)
}

// flightTimeout is a dispatch timer's expiry.
//
//mindgap:noalloc
func flightTimeout(recv, obj any, _ uint64) {
	recv.(*Offload).queueMgr.Submit(qcNotif, obj.(*flight).expiry)
}

// expired applies Recovery's verdict on a dispatch-timeout expiry. Every
// verdict but Stale reclaims the suspected-lost credit: the worker never got
// the frame, or its notification path is broken. Abandon counts a drop;
// Accept (the client was answered) does not. The original may be merely
// slow and still mutating its request, so a retry is a clone with the full
// service time and the original arrival (latency spans attempts).
//
//mindgap:noalloc
func (s *Offload) expired(as []Assignment, now sim.Time, ev qEvent) []Assignment {
	v, slot := s.rec.Expired(ev.id, ev.req, ev.worker)
	if v == Stale {
		return as // the notification won the race
	}
	fl := s.flights[slot]
	// Still armed only if a PREEMPTED was ahead of this expiry in the ring
	// and it was then taken for the re-dispatch's own.
	fl.timer.Stop()
	as = s.lgc.CompleteTo(as, ev.worker)
	if v == Abandon {
		s.pr.Drop(now, ev.id, -1, trace.DropTimeout)
	}
	if v != Retry {
		return as
	}
	s.retries++
	clone := task.New(ev.id, fl.orig.Arrival, fl.orig.Service)
	clone.ClientID, clone.Key = fl.orig.ClientID, fl.orig.Key
	s.pr.Enqueue(now, clone.ID)
	return s.lgc.EnqueueTo(as, now, clone)
}

// pop is the core's inbox Pop: pull the next frame out of the VF ring. A
// request hash-steered while the NIC was down runs to completion, like the
// RSS baseline that mode degrades to.
//
//mindgap:noalloc
func (w *offWorker) pop() (req *task.Request, rtc, ok bool) {
	frame, ok := w.vf.Poll()
	if !ok {
		return nil, false, false
	}
	req, w.curDegraded = frameReq(frame)
	return req, w.curDegraded, true
}

// started runs once a request is executing on kw.
//
//mindgap:noalloc
func (s *Offload) started(kw *cores.Worker, req *task.Request) {
	// A start moves work from the inbox onto the core, so the backlog is
	// news only if requests landed since the last notification: a start
	// from idle, not one straight out of a FINISH.
	if w := s.workers[kw.ID]; s.cfg.Policy == InformedLeastLoaded && kw.Backlog() != w.sent {
		w.notifyDispatcher(evLoad, nil, 0)
	}
	if s.cfg.DirectInterrupts {
		// The §5.1(3) ablation: the NIC tracks the slice and posts an
		// interrupt over the low-latency path when it expires.
		kw.PostSlice(req, s.cfg.P.CXLOneWay)
	}
}

// finished runs once kw has sent a response: build the FINISH notification
// that returns the request's credit, then pick up the next stashed request.
//
//mindgap:noalloc
func (s *Offload) finished(kw *cores.Worker, req *task.Request, built sim.Time) {
	w := s.workers[kw.ID]
	if w.curDegraded {
		// Degraded requests consumed no credit and the dispatcher never
		// saw them: no FINISH notification to build.
		w.curDegraded = false
		w.ReleaseAt(built)
		return
	}
	// The ID rides as the event argument: the response is now in flight, so
	// by the time the notification is built req may already be recycled.
	w.After(built, s.cfg.P.WorkerNotifyCost, workerNotifyFinish, w, req, req.ID)
}

// preempted runs on a slice expiry: notify the dispatcher (only the
// descriptor travels, §3.4.3) and start the next stashed request.
//
//mindgap:noalloc
func (s *Offload) preempted(kw *cores.Worker, req *task.Request) {
	w := s.workers[kw.ID]
	w.After(s.eng.Now(), s.cfg.P.WorkerNotifyCost, workerNotifyPreempt, w, req, req.ID)
}

// workerNotifyFinish fires once the FINISH notification is built. id is the
// finished request's ID, snapshotted before the response could recycle it.
//
//mindgap:noalloc
func workerNotifyFinish(recv, obj any, id uint64) {
	w := recv.(*offWorker)
	w.notifyDispatcher(evFinish, obj.(*task.Request), id)
	w.Release()
}

// workerNotifyPreempt fires once the PREEMPTED notification is built.
//
//mindgap:noalloc
func workerNotifyPreempt(recv, obj any, id uint64) {
	w := recv.(*offWorker)
	w.notifyDispatcher(evPreempted, obj.(*task.Request), id)
	w.Release()
}

// notifyDispatcher sends a worker→dispatcher control frame through the NIC
// to the ARM complex's interface. Every frame carries the worker's backlog
// as it stands now — the fine-grained feedback of §3.1.
//
//mindgap:noalloc
func (w *offWorker) notifyDispatcher(kind qEventKind, req *task.Request, id uint64) {
	s := w.sys
	qe := s.qevGet()
	*qe = qEvent{kind: kind, worker: w.ID, req: req, id: id, load: w.Backlog()}
	w.sent = qe.load
	if !s.nic.Send(nicmodel.Frame{
		Dst:     s.armFn.MAC(),
		Src:     w.vf.MAC(),
		Bytes:   s.cfg.P.ControlFrameBytes,
		Payload: qe,
	}) {
		// The frame was lost on the wire: the box will never be delivered.
		s.qevPut(qe)
	}
}

// QueueLen exposes the central queue depth (tests and debugging).
func (s *Offload) QueueLen() int { return s.lgc.QueueLen() }

// FaultSchedule exposes the compiled fault schedule (nil on the healthy
// path) — the bench recovery table reads its crash windows.
func (s *Offload) FaultSchedule() *faults.Schedule { return s.flt }

// Retries returns how many expiries Recovery answered with a retry.
func (s *Offload) Retries() uint64 { return s.retries }

// TimeoutDrops returns how many requests were abandoned after the retry
// budget ran out.
func (s *Offload) TimeoutDrops() uint64 { return s.pr.Drops(trace.DropTimeout) }

// DegradedSteered returns how many arrivals were hash-steered past the
// dead ARM complex.
func (s *Offload) DegradedSteered() uint64 { return s.degradedCount }
