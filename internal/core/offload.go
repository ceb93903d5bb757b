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
	// many events it drains from one input ring before polling the other.
	// 1 (the default) alternates fairly; the paper's prototype processes
	// rx_burst-sized batches, which delays credit handling under a flood
	// of new arrivals (see the Figure 3 burst ablation). 0 means 1.
	DispatchBurst int
	// DDIOToL1 models §5.2: because the scheduler bounds outstanding
	// requests per core, the NIC can place packets directly into each
	// worker's L1 without polluting it, waiving the near-cache fetch
	// penalty on pickup.
	DDIOToL1 bool
	// PriorityClasses > 1 splits the central queue into strict priority
	// classes (§2.2's co-located latency classes); ClassOf maps each
	// request to a class in [0, PriorityClasses), highest first.
	PriorityClasses int
	ClassOf         func(*task.Request) int
	// AdmissionLimit bounds the central queue: when it holds this many
	// requests the NIC sheds new arrivals instead of queuing them (the
	// §5.2 congestion-control co-design idea — the NIC knows the backlog
	// the instant a request arrives and can push back before the request
	// consumes host resources). Zero means unbounded.
	AdmissionLimit int
	// Metrics, when set, wires every component's probes into the registry:
	// drop counts by cause read from the lifecycle probe ("sched/shed",
	// "nic/vf_drops", "faults/timeout_drops", their total "offload/drops"),
	// scheduler queue depth and decision counters ("sched"), per-worker
	// utilization and preemptions ("worker<i>"), ARM stage occupancy
	// ("arm-networker", "arm-queue", "arm-tx", "arm-rx"), NIC steering and
	// per-function ring occupancy ("nic", "nicfn-*"), and fabric link
	// latency histograms ("fabric/*").
	Metrics *telemetry.Registry
	// Affinity makes the scheduler resume preempted requests on the worker
	// that last ran them when possible (§3.1 cache affinity), avoiding the
	// CtxMigratePenalty of pulling the context across cores.
	Affinity bool
	// FaultSpec, when set, injects the deterministic fault schedule into
	// the assembled system (NIC ARM crash/slowdown windows, NIC↔host link
	// loss/latency bursts, worker stalls) and enables the timeout/retry
	// and hash-steering degradation machinery it configures. FaultSeed
	// seeds the schedule's own random stream; each Offload instance
	// compiles its own faults.Schedule so concurrent sweep points never
	// share fault state. Nil leaves every hook nil — the healthy path is
	// byte-identical to a build without the fault layer.
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
	// evTimeout is a dispatch-timeout expiry (fault layer): the NIC never
	// heard back about a dispatched request within its timeout and must
	// decide between retry and abandonment.
	evTimeout
)

// qEvent is one input to the queue-manager stage.
type qEvent struct {
	kind   qEventKind
	worker int
	req    *task.Request
	// id is req.ID snapshotted when the event was built, while the sender
	// still owned a live request. Requests are pooled: by the time a FINISH
	// notification crosses the NIC the response may already have reached the
	// client and recycled req into a different logical request, so consumers
	// must key the flights/responded maps by this snapshot, never by req.ID
	// read at processing time. (req itself stays useful as an attempt
	// identity: pointer comparisons are stable across recycling.)
	id      uint64
	load    int64 // evLoad only: reported instantaneous load (ns)
	attempt int   // evTimeout only: the dispatch attempt the timer guarded
}

// degradedReq wraps a request hash-steered directly to a worker VF while
// the NIC ARM cores are down: the worker runs it to completion and skips
// the FINISH notification (no credit was consumed for it).
type degradedReq struct {
	req *task.Request
}

// flight tracks one dispatched request under the fault layer's timeout
// machinery: which worker and attempt the armed timer guards. worker is
// -1 while the request sits in the central queue (preempted or awaiting
// a retry dispatch).
//
// The arrival/service/clientID/key fields snapshot the request's immutable
// identity at dispatch time: a timeout-retry clone must copy them from the
// flight, not from the (possibly already pooled and recycled) request the
// timer captured.
type flight struct {
	req      *task.Request
	worker   int
	attempt  int
	timer    sim.Timer
	arrival  sim.Time
	service  time.Duration
	clientID uint32
	key      uint64
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
	// pr is the lifecycle probe: every instant of a request's life and
	// every drop is reported through it, and the drop accessors and
	// telemetry counters read its per-reason counts back.
	pr *probe.Probe

	// flt is the compiled fault schedule (nil on the healthy path). The
	// maps exist only when the schedule configures a timeout: flights
	// tracks in-flight dispatch attempts by request ID, responded dedupes
	// client responses when retries race original completions.
	flt        *faults.Schedule
	flights    map[uint64]*flight
	flightFree []*flight // finished flight records, reused by trackDispatch
	responded  map[uint64]bool

	// Fault-layer counters (always maintained while flt is set; telemetry
	// reads them when cfg.Metrics is set).
	retries       uint64
	degradedCount uint64
	staleNotifs   uint64
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

// flightPut retires a finished flight: out of the map, timer disarmed, and
// onto the free list.
//
//mindgap:noalloc
func (s *Offload) flightPut(id uint64, fl *flight) {
	delete(s.flights, id)
	fl.timer.Stop()
	*fl = flight{}
	s.flightFree = append(s.flightFree, fl)
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
			s.flights = make(map[uint64]*flight)
			s.responded = make(map[uint64]bool)
			done = s.respondOnce
		}
	}
	s.Host = cores.NewHost(eng, cores.HostConfig{
		P: p, Workers: cfg.Workers, Pickup: p.PickupCost(cfg.DDIOToL1),
		Slice: cfg.Slice, SelfArm: !cfg.DirectInterrupts,
	}, pr, s.ingress, done)
	s.Started, s.Finished, s.Preempted = s.started, s.finished, s.preempted
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

	if st := s.nicStretch(); st != nil {
		// Every ARM-complex stage shares the NIC crash/slowdown timeline:
		// a crashed ARM complex freezes the networker, queue manager, TX
		// and RX cores together.
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
	if cfg.Metrics != nil {
		s.registerTelemetry(cfg.Metrics)
	}
	return s
}

// nicStretch returns the ARM-complex stretch function, nil when no fault
// schedule (or no NIC windows) applies.
func (s *Offload) nicStretch() faults.StretchFunc {
	if s.flt == nil {
		return nil
	}
	return s.flt.NICStretch()
}

// registerTelemetry wires every component's probes into reg. Called once
// from NewOffload, after all functions and workers exist.
func (s *Offload) registerTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("sched", "shed", s.Shed)
	reg.CounterFunc("nic", "vf_drops", func() uint64 { return s.pr.Drops(trace.DropRingOverflow) })
	// Every drop, whatever its cause: matches the recorder's Dropped()
	// over a window that spans the run.
	reg.CounterFunc("offload", "drops", s.pr.Dropped)
	if s.flt != nil {
		s.flt.RegisterTelemetry(reg)
		reg.CounterFunc("faults", "timeout_drops", s.TimeoutDrops)
		reg.CounterFunc("faults", "retries", s.Retries)
		reg.CounterFunc("faults", "degraded_steered", s.DegradedSteered)
		reg.CounterFunc("faults", "stale_notifications", s.StaleNotifications)
		reg.CounterFunc("faults", "duplicate_responses", s.DuplicateResponses)
	}

	s.lgc.RegisterTelemetry(reg, "sched", s.eng.Now)
	s.networker.RegisterTelemetry(reg, "arm-networker")
	s.queueMgr.RegisterTelemetry(reg, "arm-queue")
	s.txCore.RegisterTelemetry(reg, "arm-tx")
	s.rxCore.RegisterTelemetry(reg, "arm-rx")
	s.shmNetQ.RegisterTelemetry(reg, "fabric/shm-net→q")
	s.shmQTx.RegisterTelemetry(reg, "fabric/shm-q→tx")
	s.shmRxQ.RegisterTelemetry(reg, "fabric/shm-rx→q")
	s.nic.RegisterTelemetry(reg)
	s.Host.RegisterTelemetry(reg)
	reg.GaugeFunc("offload", "worker_idle_fraction", func() float64 {
		return s.WorkerIdleFraction(s.eng.Now())
	})
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

// respondOnce stands in for done under timeout/retry, where a slow
// original and its retry clone can both finish: the client must see a
// single response per request ID.
//
//mindgap:noalloc
func (s *Offload) respondOnce(req *task.Request) {
	if s.responded[req.ID] {
		s.dupResponses++
		return
	}
	s.responded[req.ID] = true
	s.done(req)
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
// a credited dispatch lost the same way is retried or abandoned by the
// timeout machinery instead.
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
		if s.flights != nil {
			fl := s.flights[ev.id]
			if fl == nil || fl.req != ev.req {
				// A completion from an abandoned dispatch attempt: its
				// credit was already reclaimed synthetically at timeout, so
				// releasing again would violate the credit invariant.
				s.staleNotifs++
				return
			}
			s.flightPut(ev.id, fl)
		}
		as = s.lgc.CompleteTo(as, ev.worker)
	case evPreempted:
		if s.flights != nil {
			fl := s.flights[ev.id]
			if fl == nil || fl.req != ev.req {
				// A preemption from an abandoned dispatch attempt: drop it
				// entirely — re-queueing it would duplicate the retry clone.
				s.staleNotifs++
				return
			}
			fl.timer.Stop()
			fl.worker = -1
		}
		s.pr.Enqueue(now, ev.id)
		as = s.lgc.PreemptedTo(as, now, ev.worker, ev.req)
	case evLoad:
		s.lgc.ReportLoadAt(now, ev.worker, ev.load)
	case evTimeout:
		as = s.handleTimeout(as, now, ev)
	}
	for _, a := range as {
		s.pr.Dispatch(now, a.Req.ID, a.Worker)
		auditDispatch(s.pr, s.Host, s.lgc, now, a)
		if s.flights != nil {
			s.trackDispatch(a)
		}
		s.shmQTx.SendT(0, shmDispatch, s, a.Req, uint64(a.Worker))
	}
	s.asScratch = as[:0]
}

// trackDispatch records a dispatch attempt and arms its timeout. The
// timer routes its expiry through the notification ring, so timeout
// processing pays ARM queueing — and crash-window stretch — like every
// other control event (a dead dispatcher cannot retry until it
// recovers).
func (s *Offload) trackDispatch(a Assignment) {
	fl := s.flights[a.Req.ID]
	if fl == nil {
		if n := len(s.flightFree); n > 0 {
			fl, s.flightFree = s.flightFree[n-1], s.flightFree[:n-1]
		} else {
			fl = &flight{}
		}
		s.flights[a.Req.ID] = fl
	}
	fl.req = a.Req
	fl.worker = a.Worker
	fl.arrival = a.Req.Arrival
	fl.service = a.Req.Service
	fl.clientID = a.Req.ClientID
	fl.key = a.Req.Key
	// Still armed only if a PREEMPTED overtook an expiry on its way through
	// the ring and that expiry was then taken for the re-dispatch's own.
	fl.timer.Stop()
	s.eng.ArmAfterE(&fl.timer, s.flt.AttemptTimeout(fl.attempt), flightTimeout, s, fl, a.Req.ID)
}

// flightTimeout is a dispatch timer's expiry. Every change to a flight
// either stops its timer (FINISH, PREEMPTED) or happens while handling that
// timer's own expiry, so the flight still describes the dispatch the timer
// was armed for; only the ID, which the flight does not store, rides as the
// event argument.
func flightTimeout(recv, obj any, id uint64) {
	s, fl := recv.(*Offload), obj.(*flight)
	s.queueMgr.Submit(qcNotif, qEvent{kind: evTimeout, worker: fl.worker, req: fl.req, id: id, attempt: fl.attempt})
}

// handleTimeout decides a dispatch-timeout expiry on the queue-manager
// core: ignore if stale (the notification won the race), retry with a
// fresh clone while budget remains, abandon otherwise. Either live
// outcome synthetically reclaims the suspected-lost credit — the worker
// either never got the frame or its notification path is broken.
func (s *Offload) handleTimeout(as []Assignment, now sim.Time, ev qEvent) []Assignment {
	fl := s.flights[ev.id]
	if fl == nil || fl.req != ev.req || fl.worker != ev.worker || fl.attempt != ev.attempt || fl.worker < 0 {
		return as
	}
	w := fl.worker
	if fl.attempt >= s.flt.Retries() {
		// Retry budget exhausted: abandon the request. A late response
		// from a still-executing original must not resurrect it.
		s.flightPut(ev.id, fl)
		s.responded[ev.id] = true
		s.pr.Drop(now, ev.id, -1, trace.DropTimeout)
		return s.lgc.CompleteTo(as, w)
	}
	// Retry: the original dispatch may still be alive (merely slow), and
	// the worker will keep mutating that request object — so the retry is
	// a fresh clone with the full service time and the original arrival
	// (client-observed latency spans all attempts). respondOnce dedupes
	// whichever copy answers first.
	fl.attempt++
	s.retries++
	// Clone from the flight's snapshot, not from ev.req: the captured
	// pointer may already have been recycled into a different request.
	clone := task.New(ev.id, fl.arrival, fl.service)
	clone.ClientID = fl.clientID
	clone.Key = fl.key
	fl.req = clone
	fl.worker = -1
	as = s.lgc.CompleteTo(as, w)
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
	//lint:allow hotalloc non-escaping iterator closure: the compiler stack-allocates it, which the escape budget verifies
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

// Retries returns how many dispatch attempts the timeout machinery
// re-issued.
func (s *Offload) Retries() uint64 { return s.retries }

// TimeoutDrops returns how many requests were abandoned after the retry
// budget ran out.
func (s *Offload) TimeoutDrops() uint64 { return s.pr.Drops(trace.DropTimeout) }

// DegradedSteered returns how many arrivals were hash-steered past the
// dead ARM complex.
func (s *Offload) DegradedSteered() uint64 { return s.degradedCount }

// StaleNotifications returns how many worker notifications arrived for
// already-abandoned dispatch attempts.
func (s *Offload) StaleNotifications() uint64 { return s.staleNotifs }

// DuplicateResponses returns how many completed copies of a request lost
// the response race to an earlier copy.
func (s *Offload) DuplicateResponses() uint64 { return s.dupResponses }
