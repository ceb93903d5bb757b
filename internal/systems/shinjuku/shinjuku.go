// Package shinjuku models the vanilla Shinjuku system (Kaffes et al., NSDI
// '19) as described in §2.1 of the paper: a host-resident networking
// subsystem and centralized dispatcher pinned to hyperthreads of one
// physical core, workers on the remaining cores, cache-line shared-memory
// IPC, and dispatcher-driven preemption via low-overhead posted interrupts.
//
// This is the baseline Shinjuku-Offload is compared against in every figure.
// Its two structural costs are exactly the ones the paper calls out:
//
//   - It burns a physical core on networking + dispatch, so at equal
//     hardware it runs one fewer worker than Shinjuku-Offload (Figures 2,
//     4, 5).
//   - The dispatcher handles ~5 M req/s (200 ns/request), far more than
//     the offloaded ARM dispatcher — which is why it wins Figure 6.
package shinjuku

import (
	"fmt"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/core"
	"mindgap/internal/cores"
	"mindgap/internal/fabric"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// Config describes one vanilla Shinjuku deployment.
type Config struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the number of worker cores (the dispatcher's physical
	// core is additional and implicit).
	Workers int
	// Slice is the preemption quantum; zero disables preemption.
	Slice time.Duration
	// Outstanding is the per-worker credit limit. Vanilla Shinjuku keeps
	// exactly one request per worker (cache-line IPC is fast enough that
	// stashing is unnecessary); values > 1 are allowed for ablations.
	Outstanding int
	// Policy is the worker-selection policy (idle-first FIFO by default).
	Policy core.Policy
	// Sockets models a multi-socket host (§1): the NIC DDIO-places every
	// packet into socket 0's LLC (where the networker runs); workers on
	// other sockets pay P.NUMAPenalty on pickup because the dispatcher
	// picks workers with no knowledge of packet placement. 0 or 1 means a
	// single socket.
	Sockets int
}

// dEventKind tags dispatcher inputs.
type dEventKind uint8

const (
	evNew dEventKind = iota
	evFinish
	evPreempted
)

type dEvent struct {
	kind   dEventKind
	worker int
	req    *task.Request
}

// Dispatcher input classes (polled round-robin, like the real dispatcher's
// loop alternating between the networker ring and worker completion flags).
const (
	dcNew = iota
	dcNotif
)

// Shinjuku is the simulated vanilla system.
type Shinjuku struct {
	eng  *sim.Engine
	cfg  Config
	lgc  *core.Logic
	done func(*task.Request)
	pr   *probe.Probe

	ingress    *fabric.Link
	egress     *fabric.Link
	networker  *fabric.Stage[*task.Request]
	dispatcher *fabric.MultiStage[dEvent]
	shmNetDisp *fabric.Link

	workers []*worker

	// asScratch is the reusable assignment buffer for the dispatcher's
	// scheduling calls (consumed synchronously per event).
	asScratch []core.Assignment
}

// worker is one host worker core connected to the dispatcher by cache-line
// shared memory.
type worker struct {
	sys  *Shinjuku
	id   int
	exec *cores.Exec
	// fromDisp and toDisp model the cache-line channels.
	fromDisp *fabric.Link
	toDisp   *fabric.Link
	// pending holds the assignment being picked up.
	pendingPickup bool
	// stash holds requests delivered while the core was mid-pickup or in
	// post-processing (only possible when Outstanding > 1).
	stash []*task.Request
	post  bool
}

// New builds the system. done runs at the instant the client receives each
// response; pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *Shinjuku {
	if cfg.Workers <= 0 {
		panic("shinjuku: need workers")
	}
	if done == nil {
		panic("shinjuku: need a completion callback")
	}
	if cfg.Outstanding <= 0 {
		cfg.Outstanding = 1
	}
	p := cfg.P
	s := &Shinjuku{
		eng:  eng,
		cfg:  cfg,
		lgc:  core.NewLogic(cfg.Workers, cfg.Outstanding, cfg.Policy),
		done: done,
		pr:   pr,
	}
	s.ingress = fabric.NewLink(eng, "client→nic", fabric.LinkConfig{
		Latency: p.ClientWireOneWay, BandwidthBps: p.WireBandwidth,
	})
	s.egress = fabric.NewLink(eng, "nic→client", fabric.LinkConfig{
		Latency: p.ClientWireOneWay, BandwidthBps: p.WireBandwidth,
	})
	s.shmNetDisp = fabric.NewLink(eng, "shm net→disp", fabric.LinkConfig{Latency: p.CacheLine})

	s.networker = fabric.NewStage[*task.Request](eng, "host-networker", 0,
		fabric.FixedCost[*task.Request](p.HostNetworkerCost),
		func(r *task.Request) {
			s.shmNetDisp.SendT(0, shmArrive, s, r, 0)
		})

	s.dispatcher = fabric.NewMultiStage[dEvent](eng, "host-dispatcher", 2, nil,
		func(ev dEvent) time.Duration {
			if ev.kind == evFinish {
				return p.HostCompletionCost
			}
			return p.HostDispatchCost
		},
		s.handleDispatcherEvent)

	execCfg := cores.ExecConfig{
		Clock:      p.HostClock,
		Timer:      p.HostTimer,
		Slice:      cfg.Slice,
		SelfArm:    false, // preemption is dispatcher-posted
		CtxSave:    p.CtxSaveCost,
		CtxResume:  p.CtxResumeCost,
		CtxMigrate: p.CtxMigratePenalty,
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			sys: s,
			id:  i,
			fromDisp: fabric.NewLink(eng, fmt.Sprintf("shm disp→w%d", i),
				fabric.LinkConfig{Latency: p.CacheLine}),
			toDisp: fabric.NewLink(eng, fmt.Sprintf("shm w%d→disp", i),
				fabric.LinkConfig{Latency: p.CacheLine}),
		}
		w.exec = cores.NewExec(eng, i, execCfg, w.onComplete, w.onPreempt)
		s.workers = append(s.workers, w)
	}
	return s
}

// Name implements the experiment System interface.
func (s *Shinjuku) Name() string { return "shinjuku" }

// Inject admits a client request at the current instant.
func (s *Shinjuku) Inject(req *task.Request) {
	s.pr.Arrive(s.eng.Now(), req.ID, req.Service)
	s.ingress.SendT(s.cfg.P.RequestFrameBytes, shinIngress, s, req, 0)
}

// shinIngress fires when a request frame reaches the host NIC.
//
//mindgap:noalloc
func shinIngress(recv, obj any, _ uint64) {
	s := recv.(*Shinjuku)
	req := obj.(*task.Request)
	s.pr.Ingress(s.eng.Now(), req.ID)
	s.networker.Submit(req)
}

// shmArrive fires when a new request crosses the networker→dispatcher
// cache-line channel.
//
//mindgap:noalloc
func shmArrive(recv, obj any, _ uint64) {
	s := recv.(*Shinjuku)
	s.dispatcher.Submit(dcNew, dEvent{kind: evNew, req: obj.(*task.Request)})
}

// trueLoad returns the worker's resident backlog in ns — remaining work
// executing plus remaining work stashed — the decision audit's ground
// truth.
//
//mindgap:noalloc
func (w *worker) trueLoad() int64 {
	var load int64
	if cur := w.exec.Current(); cur != nil {
		load += int64(cur.Remaining)
	}
	for _, r := range w.stash {
		load += int64(r.Remaining)
	}
	return load
}

// auditDispatch presents one dispatch decision to the attribution layer.
// Vanilla Shinjuku's dispatcher reads worker state over cache lines, so
// its view is far fresher than a NIC's — the audit quantifies exactly how
// much fresher.
//
//mindgap:noalloc
func (s *Shinjuku) auditDispatch(now sim.Time, a core.Assignment) {
	truth := s.pr.AuditTruth(len(s.workers))
	if truth == nil {
		return
	}
	for i, w := range s.workers {
		truth[i] = w.trueLoad()
	}
	d := attr.Decision{At: now, ReqID: a.Req.ID, Chosen: a.Worker, Truth: truth}
	d.Estimate, d.EstimateAge, d.Informed = s.lgc.EstimateFor(now, a.Worker)
	s.pr.Audit(d)
}

//mindgap:noalloc
func (s *Shinjuku) handleDispatcherEvent(ev dEvent) {
	as := s.asScratch[:0]
	now := s.eng.Now()
	switch ev.kind {
	case evNew:
		s.pr.Enqueue(now, ev.req.ID)
		as = s.lgc.EnqueueTo(as, now, ev.req)
	case evFinish:
		as = s.lgc.CompleteTo(as, ev.worker)
	case evPreempted:
		s.pr.Enqueue(now, ev.req.ID)
		as = s.lgc.PreemptedTo(as, now, ev.worker, ev.req)
	}
	for _, a := range as {
		s.pr.Dispatch(now, a.Req.ID, a.Worker)
		s.auditDispatch(now, a)
		w := s.workers[a.Worker]
		w.fromDisp.SendT(0, dispDeliver, w, a.Req, 0)
	}
	s.asScratch = as[:0]
}

// dispDeliver fires when an assignment crosses the dispatcher→worker
// cache-line channel.
//
//mindgap:noalloc
func dispDeliver(recv, obj any, _ uint64) {
	w := recv.(*worker)
	w.receive(obj.(*task.Request))
}

// armSlice implements dispatcher-driven preemption: the dispatcher tracks
// when each request started running and posts an interrupt when its slice
// expires (§2.1). The countdown is armed at actual execution start; the
// tracking costs the dispatcher nothing extra — the real implementation
// folds it into its polling loop — while interrupt receipt is charged on
// the worker by Exec.Interrupt.
//
//mindgap:noalloc
func (s *Shinjuku) armSlice(w *worker, req *task.Request) {
	// The generation guards against pooled-request reuse: req may complete,
	// recycle, and restart on this worker before the slice expires.
	s.eng.AfterE(s.cfg.Slice, shinSliceFire, w, req, uint64(req.Gen))
}

// shinSliceFire posts the dispatcher-tracked preemption interrupt.
//
//mindgap:noalloc
func shinSliceFire(recv, obj any, gen uint64) {
	w := recv.(*worker)
	req := obj.(*task.Request)
	if w.exec.Current() == req && uint64(req.Gen) == gen {
		w.exec.Interrupt()
	}
}

// socket returns the worker's socket index (workers are split into
// contiguous blocks across sockets).
//
//mindgap:noalloc
func (w *worker) socket() int {
	s := w.sys.cfg.Sockets
	if s <= 1 {
		return 0
	}
	return w.id * s / w.sys.cfg.Workers
}

// receive accepts an assignment on the worker core.
//
//mindgap:noalloc
func (w *worker) receive(req *task.Request) {
	w.sys.pr.HostArrive(w.sys.eng.Now(), req.ID)
	w.stash = append(w.stash, req)
	w.maybeStart()
}

//mindgap:noalloc
func (w *worker) maybeStart() {
	if w.exec.Busy() || w.post || w.pendingPickup || len(w.stash) == 0 {
		return
	}
	w.pendingPickup = true
	cost := w.sys.cfg.P.PickupCost(false)
	if w.socket() != 0 {
		// The packet sits in socket 0's LLC; a remote worker fetches it
		// across the interconnect.
		cost += w.sys.cfg.P.NUMAPenalty
	}
	w.sys.eng.AfterE(cost, shinPickup, w, nil, 0)
}

// shinPickup fires once the pickup cost has elapsed: start the oldest
// stashed request.
//
//mindgap:noalloc
func shinPickup(recv, _ any, _ uint64) {
	w := recv.(*worker)
	w.pendingPickup = false
	if len(w.stash) == 0 {
		return
	}
	req := w.stash[0]
	w.stash = w.stash[1:]
	w.sys.pr.Start(w.sys.eng.Now(), req.ID, w.id)
	w.exec.Start(req)
	if w.sys.cfg.Slice > 0 && req.Remaining > w.sys.cfg.Slice {
		w.sys.armSlice(w, req)
	}
}

//mindgap:noalloc
func (w *worker) onComplete(req *task.Request) {
	sys := w.sys
	sys.pr.Complete(sys.eng.Now(), req.ID, w.id)
	w.post = true
	sys.eng.AfterE(sys.cfg.P.WorkerResponseCost, shinResponseBuilt, w, req, 0)
}

// shinResponseBuilt fires once the worker has built the response packet:
// transmit it and raise the completion flag.
//
//mindgap:noalloc
func shinResponseBuilt(recv, obj any, _ uint64) {
	w := recv.(*worker)
	sys := w.sys
	req := obj.(*task.Request)
	sys.egress.SendT(sys.cfg.P.ResponseFrameBytes, shinRespond, sys, req, 0)
	// Completion flag is a cache-line write: effectively free for the
	// worker compared to packet construction.
	w.toDisp.SendT(0, shinNotifyFinish, w, nil, 0)
	w.post = false
	w.maybeStart()
}

// shinRespond fires when the response frame reaches the client.
//
//mindgap:noalloc
func shinRespond(recv, obj any, _ uint64) {
	s := recv.(*Shinjuku)
	req := obj.(*task.Request)
	s.pr.Respond(s.eng.Now(), req.ID)
	s.done(req)
}

// shinNotifyFinish fires when the completion flag's cache line reaches the
// dispatcher.
//
//mindgap:noalloc
func shinNotifyFinish(recv, _ any, _ uint64) {
	w := recv.(*worker)
	w.sys.dispatcher.Submit(dcNotif, dEvent{kind: evFinish, worker: w.id})
}

//mindgap:noalloc
func (w *worker) onPreempt(req *task.Request) {
	sys := w.sys
	sys.pr.Preempt(sys.eng.Now(), req.ID, w.id)
	w.post = true
	w.toDisp.SendT(0, shinNotifyPreempt, w, req, 0)
	w.post = false
	w.maybeStart()
}

// shinNotifyPreempt fires when the preemption flag's cache line reaches
// the dispatcher.
//
//mindgap:noalloc
func shinNotifyPreempt(recv, obj any, _ uint64) {
	w := recv.(*worker)
	w.sys.dispatcher.Submit(dcNotif, dEvent{kind: evPreempted, worker: w.id, req: obj.(*task.Request)})
}

// WorkerIdleFraction returns the mean idle fraction across worker cores.
func (s *Shinjuku) WorkerIdleFraction(now sim.Time) float64 {
	var sum float64
	for _, w := range s.workers {
		sum += w.exec.Track.IdleFraction(now)
	}
	return sum / float64(len(s.workers))
}

// ArmWorkerTrackers starts worker busy-time accounting at now.
func (s *Shinjuku) ArmWorkerTrackers(now sim.Time) {
	for _, w := range s.workers {
		w.exec.Track.Arm(now)
	}
}

// QueueLen exposes the central queue depth.
func (s *Shinjuku) QueueLen() int { return s.lgc.QueueLen() }

// DispatcherUtilization returns the dispatcher core's busy fraction.
func (s *Shinjuku) DispatcherUtilization(now sim.Time) float64 {
	return s.dispatcher.BusyTracker().BusyFraction(now)
}

// ArmDispatcherTracker starts dispatcher utilization accounting.
func (s *Shinjuku) ArmDispatcherTracker(now sim.Time) {
	s.dispatcher.BusyTracker().Arm(now)
	s.networker.BusyTracker().Arm(now)
}

// Completions returns total completed requests across workers.
func (s *Shinjuku) Completions() uint64 {
	var n uint64
	for _, w := range s.workers {
		n += w.exec.Completions()
	}
	return n
}
