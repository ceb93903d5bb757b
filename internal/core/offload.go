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
	// LeastOutstanding (idle-first FIFO dispatch).
	Policy Policy
	// DirectInterrupts switches to the §5.1(3) ideal-NIC ablation: the NIC
	// posts preemption interrupts to cores directly instead of workers
	// arming local APIC timers. Delivery latency is P.CXLOneWay.
	DirectInterrupts bool
	// LoadFeedback enables periodic host→NIC load reports that upgrade the
	// selection policy to InformedLeastLoaded data (only meaningful when
	// Policy == InformedLeastLoaded).
	LoadFeedback bool
	// DispatchBurst is the queue-manager core's DPDK-style burst size: how
	// many events it drains from one input ring before polling the other
	// (0 or 1 alternates fairly; rx_burst-sized batches delay credit
	// handling under a flood of arrivals, the Figure 3 burst ablation).
	DispatchBurst int
	// DDIOToL1 models §5.2: with outstanding requests per core bounded, the
	// NIC places packets straight into the worker's L1, waiving the
	// near-cache fetch penalty on pickup.
	DDIOToL1 bool
	// PriorityClasses > 1 splits the central queue into strict priority
	// classes (§2.2's co-located latency classes); ClassOf maps each
	// request to a class in [0, PriorityClasses), highest first.
	PriorityClasses int
	ClassOf         func(*task.Request) int
	// AdmissionLimit bounds the central queue: when it holds this many
	// requests the NIC sheds new arrivals before they consume any host
	// resource (§5.2's congestion-control co-design). Zero means unbounded.
	AdmissionLimit int
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

// qEvent is one input to the queue-manager stage.
type qEvent struct {
	kind   qEventKind
	worker int
	req    *task.Request
	// id is req.ID snapshotted while the sender still owned a live request:
	// by the time a FINISH crosses the NIC the response may have recycled
	// req into another request, so Recovery is keyed by this snapshot. (req
	// stays the attempt token: pointers are stable across recycling.)
	id   uint64
	load int64 // evLoad only: reported instantaneous load (ns)
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

// Queue-manager input classes: the networker's new-request ring and the RX
// core's notification ring, polled round-robin.
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

	networker *fabric.Stage[*task.Request]
	queueMgr  *fabric.MultiStage[qEvent]
	txCore    *fabric.Stage[Assignment]
	rxCore    *fabric.Stage[qEvent]
	shmNetQ   *fabric.Link
	shmQTx    *fabric.Link
	shmRxQ    *fabric.Link

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
		pr = &probe.Probe{} // Shed/TimeoutDrops read its counts back
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
		P: p, Workers: cfg.Workers, Pickup: p.PickupCost(cfg.DDIOToL1),
		Slice: cfg.Slice, SelfArm: !cfg.DirectInterrupts,
	}, pr, s.ingress, done)
	s.Started, s.Finished, s.Preempted, s.Account = s.started, s.finished, s.preempted, s.account
	if cfg.LoadFeedback {
		s.Completed = s.reportLoad
	}

	s.shmNetQ = fabric.NewLink(eng, "shm net→q", fabric.LinkConfig{Latency: p.ArmShm})
	s.shmQTx = fabric.NewLink(eng, "shm q→tx", fabric.LinkConfig{Latency: p.ArmShm})
	s.shmRxQ = fabric.NewLink(eng, "shm rx→q", fabric.LinkConfig{Latency: p.ArmShm})

	s.networker = fabric.NewStage[*task.Request](eng, "arm-networker", 0,
		fabric.FixedCost[*task.Request](p.ArmNetworkerCost),
		func(r *task.Request) {
			s.shmNetQ.SendT(0, shmNewArrive, s, r, 0)
		})

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
	s.armFn.OnRx(func() {
		// The RX ARM core drains the ring as frames land; its own input
		// queue provides the backpressure accounting.
		if f, ok := s.armFn.Poll(); ok {
			qe := f.Payload.(*qEvent)
			ev := *qe
			s.qevPut(qe)
			s.rxCore.Submit(ev)
		}
	})
	s.armFn.OnDrop(func(f nicmodel.Frame) {
		// A notification lost to ARM ring overflow: reclaim its box.
		if qe, ok := f.Payload.(*qEvent); ok {
			s.qevPut(qe)
		}
	})

	s.txCore = fabric.NewStage[Assignment](eng, "arm-tx", 0,
		fabric.FixedCost[Assignment](p.ArmTxCost),
		func(a Assignment) {
			w := s.workers[a.Worker]
			s.nic.Send(nicmodel.Frame{
				Dst:     w.vf.MAC(),
				Src:     s.armFn.MAC(),
				Bytes:   p.ControlFrameBytes,
				Payload: a.Req,
			})
		})

	s.rxCore = fabric.NewStage[qEvent](eng, "arm-rx", 0,
		fabric.FixedCost[qEvent](p.ArmRxCost),
		func(ev qEvent) {
			qe := s.qevGet()
			*qe = ev
			s.shmRxQ.SendT(0, shmNotif, s, qe, 0)
		})

	if s.flt != nil {
		// Every ARM-complex stage shares the NIC crash/slowdown timeline
		// (nil without NIC windows): a crashed ARM complex freezes the
		// networker, queue manager, TX and RX cores together.
		st := s.flt.NICStretch()
		s.networker.SetStretch(st)
		s.queueMgr.SetStretch(st)
		s.txCore.SetStretch(st)
		s.rxCore.SetStretch(st)
	}
	for i, kw := range s.Host.Workers {
		w := &offWorker{sys: s, Worker: kw}
		if s.flt != nil {
			w.SetStretch(s.flt.WorkerStretch(i))
		}
		// The VF ring holds the stashed requests; credits guarantee it
		// never overflows, and the +1 headroom plus drop accounting guard
		// the invariant.
		w.vf = s.nic.AddFunction(fmt.Sprintf("w%d", i),
			nicmodel.MACForIndex(i+1), cfg.Outstanding+1)
		w.UseRing(cores.Inbox{Len: w.vf.Pending, Pop: w.pop, Backlog: w.stashed})
		w.vf.OnRx(w.Wake)
		w.vf.OnDrop(func(f nicmodel.Frame) { s.dropDegraded(f, w.ID, trace.DropRingOverflow) })
		w.vf.OnWireDrop(func(f nicmodel.Frame) { s.dropDegraded(f, w.ID, trace.DropWireFault) })
		w.vf.OnDeliver(func(f nicmodel.Frame) {
			req, _ := frameReq(f)
			s.pr.HostArrive(s.eng.Now(), req.ID)
		})
		s.workers = append(s.workers, w)
	}
	return s
}

// RegisterTelemetry wires the components' gauges into reg, each under its
// component's name. Call it once, before the simulation starts.
func (s *Offload) RegisterTelemetry(reg *telemetry.Registry) {
	s.lgc.RegisterTelemetry(reg, "sched")
	s.networker.RegisterTelemetry(reg, "arm-networker")
	s.queueMgr.RegisterTelemetry(reg, "arm-queue")
	s.txCore.RegisterTelemetry(reg, "arm-tx")
	s.rxCore.RegisterTelemetry(reg, "arm-rx")
	s.shmNetQ.RegisterTelemetry(reg, "fabric/shm-net→q")
	s.shmQTx.RegisterTelemetry(reg, "fabric/shm-q→tx")
	s.shmRxQ.RegisterTelemetry(reg, "fabric/shm-rx→q")
	s.nic.RegisterTelemetry(reg)
	s.Host.RegisterTelemetry(reg)
}

// Name implements the experiment System interface.
func (s *Offload) Name() string { return "shinjuku-offload" }

// ingress runs when a client request frame reaches the NIC port.
//
//mindgap:noalloc
func (s *Offload) ingress(req *task.Request) {
	s.pr.Ingress(s.eng.Now(), req.ID)
	if s.flt != nil && s.flt.Degrade() && s.flt.NICDown(s.eng.Now()) {
		// Graceful degradation: the MAC-steering hardware outlives the
		// ARM cores, so the NIC falls back to RSS-style hash steering
		// straight into a worker VF ring instead of queueing behind a
		// dead dispatcher. Informed scheduling is lost; goodput is not.
		s.steerDegraded(req)
		return
	}
	s.networker.Submit(req)
}

// shmNewArrive fires when a new request crosses the networker→queue-manager
// shared-memory ring.
//
//mindgap:noalloc
func shmNewArrive(recv, obj any, _ uint64) {
	s := recv.(*Offload)
	r := obj.(*task.Request)
	s.queueMgr.Submit(qcNew, qEvent{kind: evNew, req: r, id: r.ID})
}

// shmNotif fires when a worker notification crosses the RX-core→queue-manager
// shared-memory ring; the borrowed box returns to the pool here.
//
//mindgap:noalloc
func shmNotif(recv, obj any, _ uint64) {
	s := recv.(*Offload)
	qe := obj.(*qEvent)
	ev := *qe
	s.qevPut(qe)
	s.queueMgr.Submit(qcNotif, ev)
}

// shmDispatch fires when an assignment crosses the queue-manager→TX-core
// shared-memory ring.
//
//mindgap:noalloc
func shmDispatch(recv, obj any, worker uint64) {
	s := recv.(*Offload)
	s.txCore.Submit(Assignment{Worker: int(worker), Req: obj.(*task.Request)})
}

// steerDegraded hash-steers a request to a worker VF, bypassing the ARM
// pipeline. No credit is consumed and no FINISH notification will be
// sent; overflowing the VF ring sheds the request (graceful shedding).
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
		if s.cfg.AdmissionLimit > 0 && s.lgc.QueueLen() >= s.cfg.AdmissionLimit {
			// NIC-side load shedding: the request is dropped before it
			// consumes any host resource (§5.2). The client sees no
			// response — open-loop clients count it as a loss.
			s.pr.Drop(now, ev.id, -1, trace.DropShed)
			return
		}
		s.pr.Enqueue(now, ev.id)
		as = s.lgc.EnqueueTo(as, now, ev.req)
	case evFinish:
		if s.rec != nil && !s.acked(s.rec.Finish(ev.id, ev.req, ev.worker)) {
			return
		}
		as = s.lgc.CompleteTo(as, ev.worker)
	case evPreempted:
		if s.rec != nil && !s.acked(s.rec.Preempted(ev.id, ev.req, ev.worker)) {
			return
		}
		s.pr.Enqueue(now, ev.id)
		as = s.lgc.PreemptedTo(as, now, ev.worker, ev.req)
	case evLoad:
		s.lgc.ReportLoadAt(now, ev.worker, ev.load)
	case evTimeout:
		as = s.expired(as, now, ev)
	}
	for _, a := range as {
		s.pr.Dispatch(now, a.Req.ID, a.Worker)
		auditDispatch(s.pr, s.Host, s.lgc, now, a)
		if s.rec != nil {
			s.armTimeout(a)
		}
		s.shmQTx.SendT(0, shmDispatch, s, a.Req, uint64(a.Worker))
	}
	s.asScratch = as[:0]
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

// stashed is the core's inbox Backlog: remaining work waiting in the VF
// ring.
//
//mindgap:noalloc
func (w *offWorker) stashed() int64 {
	var load int64
	w.vf.Each(func(f nicmodel.Frame) {
		req, _ := frameReq(f)
		load += int64(req.Remaining)
	})
	return load
}

// started runs once a request is executing on kw.
//
//mindgap:noalloc
func (s *Offload) started(kw *cores.Worker, req *task.Request) {
	if s.cfg.LoadFeedback {
		s.reportLoad(kw, req)
	}
	if s.cfg.DirectInterrupts && s.cfg.Slice > 0 && req.Remaining > s.cfg.Slice {
		// The §5.1(3) ablation: the NIC tracks the slice and posts an
		// interrupt over the low-latency path when it expires. The
		// generation guards against pooled-request reuse: by the time the
		// interrupt lands, req may have completed, been recycled, and
		// started over on this same worker as a different request.
		s.eng.AfterE(s.cfg.Slice+s.cfg.P.CXLOneWay, remoteSliceFire, kw, req, uint64(req.Gen))
	}
}

// remoteSliceFire posts the NIC-tracked preemption interrupt (§5.1(3)).
//
//mindgap:noalloc
func remoteSliceFire(recv, obj any, gen uint64) {
	w := recv.(*cores.Worker)
	req := obj.(*task.Request)
	if w.Exec.Current() == req && uint64(req.Gen) == gen {
		w.Exec.Interrupt()
	}
}

// finished runs once kw has sent a response: build the FINISH notification
// that returns the request's credit, then pick up the next stashed request.
//
//mindgap:noalloc
func (s *Offload) finished(kw *cores.Worker, req *task.Request) {
	w := s.workers[kw.ID]
	if w.curDegraded {
		// Degraded requests consumed no credit and the dispatcher never
		// saw them: no FINISH notification to build.
		w.curDegraded = false
		w.Release()
		return
	}
	// The ID rides as the event argument: the response is now in flight, so
	// by the time the notification is built req may already be recycled.
	w.After(s.cfg.P.WorkerNotifyCost, workerNotifyFinish, w, req, req.ID)
}

// preempted runs on a slice expiry: notify the dispatcher (only the
// descriptor travels, §3.4.3) and start the next stashed request.
//
//mindgap:noalloc
func (s *Offload) preempted(kw *cores.Worker, req *task.Request) {
	w := s.workers[kw.ID]
	w.After(s.cfg.P.WorkerNotifyCost, workerNotifyPreempt, w, req, req.ID)
	if s.cfg.LoadFeedback {
		s.reportLoad(kw, req)
	}
}

// workerNotifyFinish fires once the FINISH notification is built. id is the
// finished request's ID, snapshotted before the response could recycle it.
//
//mindgap:noalloc
func workerNotifyFinish(recv, obj any, id uint64) {
	w := recv.(*offWorker)
	w.notifyDispatcher(qEvent{kind: evFinish, worker: w.ID, req: obj.(*task.Request), id: id})
	w.Release()
}

// workerNotifyPreempt fires once the PREEMPTED notification is built.
//
//mindgap:noalloc
func workerNotifyPreempt(recv, obj any, id uint64) {
	w := recv.(*offWorker)
	w.notifyDispatcher(qEvent{kind: evPreempted, worker: w.ID, req: obj.(*task.Request), id: id})
	w.Release()
}

// notifyDispatcher sends a worker→dispatcher control frame through the NIC
// to the ARM complex's interface.
//
//mindgap:noalloc
func (w *offWorker) notifyDispatcher(ev qEvent) {
	s := w.sys
	qe := s.qevGet()
	*qe = ev
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

// reportLoad sends kw's instantaneous load (remaining work in ns, executing
// plus stashed) to the NIC — the fine-grained feedback of §3.1.
//
//mindgap:noalloc
func (s *Offload) reportLoad(kw *cores.Worker, _ *task.Request) {
	s.workers[kw.ID].notifyDispatcher(qEvent{kind: evLoad, worker: kw.ID, load: kw.Backlog()})
}

// QueueLen exposes the central queue depth (tests and debugging).
func (s *Offload) QueueLen() int { return s.lgc.QueueLen() }

// Shed returns the number of arrivals rejected by NIC-side admission
// control (only nonzero when AdmissionLimit is set).
func (s *Offload) Shed() uint64 { return s.pr.Drops(trace.DropShed) }

// DispatcherUtilization returns the busy fraction of the queue-manager ARM
// core since its tracker was armed — the bottleneck metric of §5.1.
func (s *Offload) DispatcherUtilization(now sim.Time) float64 {
	return s.queueMgr.BusyTracker().BusyFraction(now)
}

// ArmDispatcherTracker starts dispatcher utilization accounting.
func (s *Offload) ArmDispatcherTracker(now sim.Time) {
	s.queueMgr.BusyTracker().Arm(now)
	s.networker.BusyTracker().Arm(now)
	s.txCore.BusyTracker().Arm(now)
	s.rxCore.BusyTracker().Arm(now)
}

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
