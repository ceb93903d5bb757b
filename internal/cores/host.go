package cores

import (
	"time"

	"mindgap/internal/fabric"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/queue"
	"mindgap/internal/sim"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
)

// HostConfig sizes the part of a server every dispatcher/worker model
// shares: the paper's comparison (§2.1) holds the worker cores and the
// client wire constant and varies only where scheduling decisions are
// taken and what channel carries them.
type HostConfig struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the number of worker cores.
	Workers int
	// Slice is the preemption quantum; zero means run to completion.
	Slice time.Duration
	// SelfArm makes each core arm its own slice timer (Shinjuku-Offload);
	// when false, preemption only arrives through Exec.Interrupt.
	SelfArm bool
	// Pickup is the delay between a free core turning to its inbox and
	// execution starting: pulling the packet out of the ring and spawning
	// or resuming a context (§3.4.3), plus whatever parsing the model does
	// on the worker itself.
	Pickup time.Duration
}

// Host is the host-worker kit: the client edge (ingress and egress wire,
// Inject, the respond event), one serial-core state machine per worker,
// and the worker-set surface scenario.System reads. A model embeds *Host,
// supplies steer — what happens when a request frame reaches the NIC —
// and sets the hook fields for what its channel back to the scheduler
// does differently; everything else about a worker is defined here once.
//
// Every hook runs at its instant after the kit has scheduled its own
// events, so a model's events always follow the kit's within an instant.
type Host struct {
	eng   *sim.Engine
	p     params.Params
	pr    *probe.Probe
	steer func(*task.Request)
	done  func(*task.Request)

	ingress, egress *fabric.Link

	// Workers are the worker cores, indexed by ID.
	Workers []*Worker

	// Started runs once a request is executing: the place to arm an
	// externally tracked slice or report the core's new load.
	Started func(*Worker, *task.Request)
	// Completed runs at the instant a request finishes, while the core
	// starts building the response.
	Completed func(*Worker, *task.Request)
	// Finished runs once the response is on the wire: the place to tell
	// the scheduler the core is free. The response may reach the client —
	// and recycle the request — before anything scheduled here fires. The
	// hook must call Release, now or from a later event; nil releases at
	// once.
	Finished func(*Worker, *task.Request)
	// Preempted runs when a slice expiry takes a request off its core and
	// must call Release like Finished. Required when Slice > 0.
	Preempted func(*Worker, *task.Request)
	// Account, when set, adds what the model's scheduler holds to Ledger:
	// its credits and loss-recovery records.
	Account func(*probe.Ledger)
}

// Inbox stands a model's own queue in for a worker's FIFO: Offload's
// requests wait in the worker's VF descriptor ring, whose occupancy
// decides overflow drops, so the ring itself has to be what the core
// polls. Pop reports rtc for a request that must hold the core to
// completion (no slice timer); Backlog is the remaining work queued, in
// ns.
type Inbox struct {
	Len     func() int
	Pop     func() (req *task.Request, rtc, ok bool)
	Backlog func() int64
}

// Worker is one serial host core: it picks a request out of its inbox,
// runs it, builds and sends the response, and only then turns to the next
// one. At any instant it is idle, picking up, executing, or post-processing
// (building response or notification packets), never two of them.
type Worker struct {
	h *Host
	// ID is the core's index in Host.Workers.
	ID int
	// Exec is the core's execution engine.
	Exec *Exec
	// Pickup starts as HostConfig.Pickup; a model may adjust it per core
	// before the run starts (a remote NUMA socket).
	Pickup time.Duration

	inbox queue.FIFO[*task.Request]
	ring  *Inbox
	// stretch dilates the core's off-exec overheads (pickup, response and
	// notification building) through a stall timeline; nil when the core
	// never stalls.
	stretch func(sim.Time, time.Duration) time.Duration
	picking bool
	post    bool
}

// NewHost builds the client edge and the worker cores on eng. steer runs
// when a request frame reaches the NIC port; done runs at the instant the
// client receives each response; pr (optional) carries the run's observers.
func NewHost(eng *sim.Engine, cfg HostConfig, pr *probe.Probe, steer, done func(*task.Request)) *Host {
	if cfg.Workers <= 0 {
		panic("cores: host needs workers")
	}
	if done == nil {
		panic("cores: host needs a completion callback")
	}
	p := cfg.P
	wire := fabric.LinkConfig{Latency: p.ClientWireOneWay, BandwidthBps: p.WireBandwidth}
	h := &Host{
		eng: eng, p: p, pr: pr, steer: steer, done: done,
		ingress: fabric.NewLink(eng, "client→nic", wire),
		egress:  fabric.NewLink(eng, "nic→client", wire),
	}
	ec := ExecConfig{
		Clock:      p.HostClock,
		Timer:      p.HostTimer,
		Slice:      cfg.Slice,
		SelfArm:    cfg.SelfArm,
		CtxSave:    p.CtxSaveCost,
		CtxResume:  p.CtxResumeCost,
		CtxMigrate: p.CtxMigratePenalty,
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &Worker{h: h, ID: i, Pickup: cfg.Pickup}
		w.Exec = NewExec(eng, i, ec, w.onComplete, w.onPreempt)
		h.Workers = append(h.Workers, w)
	}
	return h
}

// Inject admits a client request at the current instant (its Arrival time).
func (h *Host) Inject(req *task.Request) {
	h.pr.Arrive(h.eng.Now(), req.ID, req.Service)
	h.ingress.SendT(h.p.RequestFrameBytes, hostIngress, h, req, 0)
}

// hostIngress fires when a client request frame reaches the NIC port.
//
//mindgap:noalloc
func hostIngress(recv, obj any, _ uint64) {
	recv.(*Host).steer(obj.(*task.Request))
}

// hostRespond fires when the response frame reaches the client.
//
//mindgap:noalloc
func hostRespond(recv, obj any, _ uint64) {
	h := recv.(*Host)
	req := obj.(*task.Request)
	h.pr.Respond(h.eng.Now(), req.ID)
	h.done(req)
}

// UseRing makes the core poll in instead of its FIFO.
func (w *Worker) UseRing(in Inbox) { w.ring = &in }

// SetStretch runs the core — execution and off-exec overheads alike —
// through a stall timeline.
func (w *Worker) SetStretch(st func(sim.Time, time.Duration) time.Duration) {
	w.stretch = st
	w.Exec.cfg.Stretch = st
}

// After schedules fn(recv, obj, arg) once d of this core's busy time has
// elapsed, dilating d through the stall timeline when one applies.
//
//mindgap:noalloc
func (w *Worker) After(d time.Duration, fn sim.EventFunc, recv, obj any, arg uint64) {
	if w.stretch != nil {
		d = w.stretch(w.h.eng.Now(), d)
	}
	w.h.eng.AfterE(d, fn, recv, obj, arg)
}

// Deliver lands an assigned request in the core's FIFO inbox.
//
//mindgap:noalloc
func (w *Worker) Deliver(req *task.Request) {
	w.h.pr.HostArrive(w.h.eng.Now(), req.ID)
	w.inbox.Push(req)
	w.Wake()
}

// DeliverE is Deliver as an event: recv is the *Worker, obj the request —
// the far end of a scheduler→core link.
//
//mindgap:noalloc
func DeliverE(recv, obj any, _ uint64) {
	recv.(*Worker).Deliver(obj.(*task.Request))
}

// Queued returns how many requests wait in the core's inbox.
//
//mindgap:noalloc
func (w *Worker) Queued() int {
	if w.ring != nil {
		return w.ring.Len()
	}
	return w.inbox.Len()
}

// Running reports whether the core is executing a request or about to
// (a pickup or steal is in flight).
//
//mindgap:noalloc
func (w *Worker) Running() bool { return w.Exec.busy || w.picking }

// Idle reports whether the core has nothing to do: not running, not
// post-processing, inbox empty.
//
//mindgap:noalloc
func (w *Worker) Idle() bool { return !w.Running() && !w.post && w.Queued() == 0 }

// Backlog returns the core's resident backlog in ns at this instant:
// remaining work executing plus remaining work waiting in its inbox. It is
// both what load feedback reports and the ground truth the decision audit
// compares estimates against.
//
//mindgap:noalloc
func (w *Worker) Backlog() int64 {
	var load int64
	if cur := w.Exec.cur; cur != nil {
		load += int64(cur.Remaining)
	}
	if w.ring != nil {
		return load + w.ring.Backlog()
	}
	w.inbox.Do(func(r *task.Request) { load += int64(r.Remaining) })
	return load
}

// Wake begins the next waiting request if the core is free: the one
// pickup guard. Deliver calls it; a model whose inbox is a ring calls it
// when a frame lands.
//
//mindgap:noalloc
func (w *Worker) Wake() {
	if w.Exec.busy || w.post || w.picking || w.Queued() == 0 {
		return
	}
	w.picking = true
	w.After(w.Pickup, hostPickup, w, nil, 0)
}

// hostPickup fires once the pickup delay has elapsed: start (or resume)
// the inbox head.
//
//mindgap:noalloc
func hostPickup(recv, _ any, _ uint64) {
	w := recv.(*Worker)
	w.picking = false
	if w.ring != nil {
		if req, rtc, ok := w.ring.Pop(); ok {
			w.begin(req, !rtc)
		}
	} else if req, ok := w.inbox.Pop(); ok {
		w.begin(req, true)
	}
}

//mindgap:noalloc
func (w *Worker) begin(req *task.Request, allowSlice bool) {
	h := w.h
	h.pr.Start(h.eng.Now(), req.ID, w.ID)
	w.Exec.start(req, allowSlice)
	if h.Started != nil {
		h.Started(w, req)
	}
}

// StealAfter reserves the idle core for d — the inter-core cost of a
// ZygOS-style steal — and then starts the tail of victim's inbox on it
// with no further pickup. If victim drained in the meantime the core goes
// back to its own inbox.
//
//mindgap:noalloc
func (w *Worker) StealAfter(d time.Duration, victim *Worker) {
	w.picking = true
	w.After(d, hostSteal, w, victim, 0)
}

// hostSteal fires once the steal cost has elapsed.
//
//mindgap:noalloc
func hostSteal(recv, obj any, _ uint64) {
	w := recv.(*Worker)
	w.picking = false
	if req, ok := obj.(*Worker).inbox.PopTail(); ok {
		w.begin(req, true)
		return
	}
	w.Wake()
}

// onComplete handles a finished request: the core is serial, so it builds
// the response before it looks at its inbox again.
//
//mindgap:noalloc
func (w *Worker) onComplete(req *task.Request) {
	h := w.h
	h.pr.Complete(h.eng.Now(), req.ID, w.ID)
	w.post = true
	w.After(h.p.WorkerResponseCost, hostResponseBuilt, w, req, 0)
	if h.Completed != nil {
		h.Completed(w, req)
	}
}

// hostResponseBuilt fires once the core has built the response packet:
// transmit it, then let the model tell its scheduler.
//
//mindgap:noalloc
func hostResponseBuilt(recv, obj any, _ uint64) {
	w := recv.(*Worker)
	h := w.h
	req := obj.(*task.Request)
	h.egress.SendT(h.p.ResponseFrameBytes, hostRespond, h, req, 0)
	if h.Finished != nil {
		h.Finished(w, req)
		return
	}
	w.Release()
}

// onPreempt handles a slice expiry: the request body and context stay in
// host DRAM (§3.4.3); the model hands the descriptor back to its scheduler.
//
//mindgap:noalloc
func (w *Worker) onPreempt(req *task.Request) {
	h := w.h
	h.pr.Preempt(h.eng.Now(), req.ID, w.ID)
	w.post = true
	h.Preempted(w, req)
}

// Release ends post-processing and turns the core to its inbox. It is the
// only way out of the post state: a Finished or Preempted hook calls it
// exactly once, after scheduling whatever notification it sends.
//
//mindgap:noalloc
func (w *Worker) Release() {
	w.post = false
	w.Wake()
}

// AuditTruth is the decision audit's truth scan: every worker's resident
// backlog at this instant, or nil when no collector is attached and the
// caller should skip the audit.
//
//mindgap:noalloc
func (h *Host) AuditTruth() []int64 {
	truth := h.pr.AuditTruth(len(h.Workers))
	for i := range truth {
		truth[i] = h.Workers[i].Backlog()
	}
	return truth
}

// WorkerIdleFraction returns the mean idle fraction across worker cores
// since ArmWorkerTrackers.
func (h *Host) WorkerIdleFraction(now sim.Time) float64 {
	var sum float64
	for _, w := range h.Workers {
		sum += w.Exec.Track.IdleFraction(now)
	}
	return sum / float64(len(h.Workers))
}

// ArmWorkerTrackers starts worker busy-time accounting at now (measurement
// window start).
func (h *Host) ArmWorkerTrackers(now sim.Time) {
	for _, w := range h.Workers {
		w.Exec.Track.Arm(now)
	}
}

// Ledger is the host's account for the conservation audit: the probe's
// counts, the model's Account, and a bound on the events the system holds
// besides one per open request — per core a posted slice interrupt or a
// pickup, per credit a notification and a dispatch timer, plus the
// scheduler's stages and ticks.
func (h *Host) Ledger() probe.Ledger {
	l := h.pr.Ledger()
	if h.Account != nil {
		h.Account(&l)
	}
	l.Events += 4*len(h.Workers)*max(l.K, 1) + 8
	return l
}

// total sums one per-core counter across the workers.
func (h *Host) total(count func(*Exec) uint64) uint64 {
	var n uint64
	for _, w := range h.Workers {
		n += count(w.Exec)
	}
	return n
}

// Completions returns total completed requests across workers.
func (h *Host) Completions() uint64 { return h.total((*Exec).Completions) }

// Preemptions returns total preemptions taken across workers.
func (h *Host) Preemptions() uint64 { return h.total((*Exec).Preemptions) }

// Migrations returns how many preempted requests resumed on a different
// core than they last ran on (each paid the cache-migration penalty).
func (h *Host) Migrations() uint64 { return h.total((*Exec).Migrations) }

// RegisterTelemetry exposes the client wire's two links
// ("fabric/client→nic", "fabric/nic→client") on reg.
func (h *Host) RegisterTelemetry(reg *telemetry.Registry) {
	h.ingress.RegisterTelemetry(reg, "fabric/client→nic")
	h.egress.RegisterTelemetry(reg, "fabric/nic→client")
}

// RSSHash is the SplitMix64 finalizer — a cheap, well-mixed hash standing
// in for the NIC's Toeplitz RSS hash in the models that steer at ingress.
//
//mindgap:noalloc
func RSSHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
