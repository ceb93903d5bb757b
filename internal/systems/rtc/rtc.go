// Package rtc implements the run-to-completion baseline family of §2.1:
// dataplane OSes where the NIC steers each packet straight to a worker core
// and that core does all processing with no preemption.
//
//   - IX-style RSS (SteerHash): the NIC hashes the 5-tuple and picks a core
//     pseudo-randomly.
//   - MICA-style Flow Director (SteerKey): the NIC steers by application
//     key, giving cache locality but inheriting key skew.
//   - ZygOS (SteerHash + WorkStealing): idle cores steal queued requests
//     from busy cores, repairing load imbalance at an inter-core cost.
//
// These baselines demonstrate the two fundamental problems of §2.2: load
// imbalance (no centralized queue) and head-of-line blocking (no
// preemption).
package rtc

import (
	"fmt"

	"mindgap/internal/attr"
	"mindgap/internal/cores"
	"mindgap/internal/fabric"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/queue"
	"mindgap/internal/sim"
	"mindgap/internal/task"
	"mindgap/internal/trace"
)

// Steering selects how the NIC maps an arriving request to a core.
type Steering int

const (
	// SteerHash models RSS: a uniform pseudo-random hash over the packet
	// 5-tuple (each open-loop request is an independent flow).
	SteerHash Steering = iota
	// SteerKey models Flow Director: requests with the same application
	// key always land on the same core.
	SteerKey
)

// Config describes one run-to-completion deployment.
type Config struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the number of polling worker cores.
	Workers int
	// Steering picks the NIC steering function.
	Steering Steering
	// WorkStealing enables ZygOS-style stealing from sibling queues.
	WorkStealing bool
	// QueueCap bounds each per-core queue (0 = unbounded).
	QueueCap int
	// NameOverride replaces the derived system name.
	NameOverride string
}

// Pool is the simulated run-to-completion system.
type Pool struct {
	eng  *sim.Engine
	cfg  Config
	done func(*task.Request)
	pr   *probe.Probe

	ingress *fabric.Link
	egress  *fabric.Link
	workers []*worker
}

type worker struct {
	sys  *Pool
	id   int
	q    queue.FIFO[*task.Request]
	exec *cores.Exec
	// starting guards the parse+pickup delay between dequeue and Start.
	starting bool
	post     bool
}

// New builds the pool. done runs at the instant the client receives each
// response; pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *Pool {
	if cfg.Workers <= 0 {
		panic("rtc: need workers")
	}
	if done == nil {
		panic("rtc: need a completion callback")
	}
	p := cfg.P
	s := &Pool{eng: eng, cfg: cfg, done: done, pr: pr}
	s.ingress = fabric.NewLink(eng, "client→nic", fabric.LinkConfig{
		Latency: p.ClientWireOneWay, BandwidthBps: p.WireBandwidth,
	})
	s.egress = fabric.NewLink(eng, "nic→client", fabric.LinkConfig{
		Latency: p.ClientWireOneWay, BandwidthBps: p.WireBandwidth,
	})
	execCfg := cores.ExecConfig{
		Clock:   p.HostClock,
		Timer:   p.HostTimer,
		Slice:   0, // run to completion: the defining property
		SelfArm: false,
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{sys: s, id: i}
		w.exec = cores.NewExec(eng, i, execCfg, w.onComplete, nil)
		s.workers = append(s.workers, w)
	}
	return s
}

// Name implements the experiment System interface.
func (s *Pool) Name() string {
	if s.cfg.NameOverride != "" {
		return s.cfg.NameOverride
	}
	switch {
	case s.cfg.WorkStealing:
		return "zygos"
	case s.cfg.Steering == SteerKey:
		return "flow-director"
	default:
		return "rss"
	}
}

// Inject admits a client request at the current instant.
func (s *Pool) Inject(req *task.Request) {
	s.pr.Arrive(s.eng.Now(), req.ID, req.Service)
	s.ingress.SendT(s.cfg.P.RequestFrameBytes, rtcIngress, s, req, 0)
}

// rtcIngress fires when a request frame reaches the NIC: steer it.
//
//mindgap:noalloc
func rtcIngress(recv, obj any, _ uint64) {
	recv.(*Pool).steer(obj.(*task.Request))
}

// trueLoad returns the worker's resident backlog in ns — remaining work
// executing plus remaining work queued — the decision audit's ground
// truth.
//
//mindgap:noalloc
func (w *worker) trueLoad() int64 {
	var load int64
	if cur := w.exec.Current(); cur != nil {
		load += int64(cur.Remaining)
	}
	//lint:allow hotalloc non-escaping iterator closure: the compiler stack-allocates it, which the escape budget verifies
	w.q.Do(func(r *task.Request) { load += int64(r.Remaining) })
	return load
}

// auditSteer presents one steering decision to the attribution layer.
// Hash steering is uninformed by construction: the NIC holds no belief
// about core backlogs, so the audit measures how often blind placement
// lands on a busy core while an idle one waits — the load imbalance of
// §2.2 stated as a mis-dispatch rate.
//
//mindgap:noalloc
func (s *Pool) auditSteer(now sim.Time, req *task.Request, chosen int) {
	truth := s.pr.AuditTruth(len(s.workers))
	if truth == nil {
		return
	}
	for i, w := range s.workers {
		truth[i] = w.trueLoad()
	}
	s.pr.Audit(attr.Decision{At: now, ReqID: req.ID, Chosen: chosen, Truth: truth})
}

// steer implements the NIC steering function.
//
//mindgap:noalloc
func (s *Pool) steer(req *task.Request) {
	var w int
	switch s.cfg.Steering {
	case SteerKey:
		w = int(splitmix64(req.Key) % uint64(len(s.workers)))
	default:
		// RSS: hash the flow identity. Open-loop clients use a fresh
		// ephemeral port per request, so the request ID stands in for the
		// 5-tuple.
		w = int(splitmix64(req.ID^uint64(req.ClientID)<<32) % uint64(len(s.workers)))
	}
	now := s.eng.Now()
	target := s.workers[w]
	if s.cfg.QueueCap > 0 && target.q.Len() >= s.cfg.QueueCap {
		s.pr.Drop(now, req.ID, w, trace.DropQueueCap)
		return
	}
	// Steering collapses ingress-processing, dispatch and the NIC→core
	// DMA into one instant: the request's wait from here to Start is pure
	// host-queue time, which is where run-to-completion tails live.
	s.pr.Ingress(now, req.ID)
	s.pr.Enqueue(now, req.ID)
	s.pr.Dispatch(now, req.ID, w)
	s.auditSteer(now, req, w)
	s.pr.HostArrive(now, req.ID)
	target.q.Push(req)
	target.maybeStart()
	if s.cfg.WorkStealing {
		// A queued request on a busy core is stealable work: wake an idle
		// sibling (ZygOS's polling idle cores notice promptly).
		if target.exec.Busy() || target.starting {
			s.wakeStealer(w)
		}
	}
}

// wakeStealer finds an idle worker and has it steal from victim's queue.
//
//mindgap:noalloc
func (s *Pool) wakeStealer(victim int) {
	for _, w := range s.workers {
		if w.exec.Busy() || w.starting || w.post || w.q.Len() > 0 {
			continue
		}
		w.starting = true
		w.sys.eng.AfterE(s.cfg.P.StealCost, rtcSteal, w, nil, uint64(victim))
		return
	}
}

// rtcSteal fires once the steal cost has elapsed: take the victim's queue
// tail (it may have drained in the meantime).
//
//mindgap:noalloc
func rtcSteal(recv, _ any, victim uint64) {
	w := recv.(*worker)
	s := w.sys
	w.starting = false
	if req, ok := s.workers[victim].q.PopTail(); ok {
		s.begin(w, req)
		return
	}
	w.maybeStart()
}

// maybeStart begins the next queued request on this core.
//
//mindgap:noalloc
func (w *worker) maybeStart() {
	if w.exec.Busy() || w.starting || w.post || w.q.Len() == 0 {
		return
	}
	w.starting = true
	// A run-to-completion core does its own packet parsing (that is the
	// point: no inter-core handoff).
	cost := w.sys.cfg.P.HostNetworkerCost + w.sys.cfg.P.PickupCost(false)
	w.sys.eng.AfterE(cost, rtcPickup, w, nil, 0)
}

// rtcPickup fires once parse+pickup has elapsed: start the queue head.
//
//mindgap:noalloc
func rtcPickup(recv, _ any, _ uint64) {
	w := recv.(*worker)
	w.starting = false
	if req, ok := w.q.Pop(); ok {
		w.sys.begin(w, req)
	}
}

//mindgap:noalloc
func (s *Pool) begin(w *worker, req *task.Request) {
	s.pr.Start(s.eng.Now(), req.ID, w.id)
	w.exec.Start(req)
}

//mindgap:noalloc
func (w *worker) onComplete(req *task.Request) {
	sys := w.sys
	sys.pr.Complete(sys.eng.Now(), req.ID, w.id)
	w.post = true
	sys.eng.AfterE(sys.cfg.P.WorkerResponseCost, rtcResponseBuilt, w, req, 0)
}

// rtcResponseBuilt fires once the worker has built the response packet.
//
//mindgap:noalloc
func rtcResponseBuilt(recv, obj any, _ uint64) {
	w := recv.(*worker)
	sys := w.sys
	req := obj.(*task.Request)
	sys.egress.SendT(sys.cfg.P.ResponseFrameBytes, rtcRespond, sys, req, 0)
	w.post = false
	w.maybeStart()
	if sys.cfg.WorkStealing && !w.exec.Busy() && !w.starting && w.q.Len() == 0 {
		// Went idle: scan siblings for stealable work.
		sys.stealInto(w)
	}
}

// rtcRespond fires when the response frame reaches the client.
//
//mindgap:noalloc
func rtcRespond(recv, obj any, _ uint64) {
	s := recv.(*Pool)
	req := obj.(*task.Request)
	s.pr.Respond(s.eng.Now(), req.ID)
	s.done(req)
}

// stealInto has idle worker w steal from the longest sibling queue.
//
//mindgap:noalloc
func (s *Pool) stealInto(w *worker) {
	victim, best := -1, 0
	for i, v := range s.workers {
		if i != w.id && v.q.Len() > best {
			victim, best = i, v.q.Len()
		}
	}
	if victim < 0 {
		return
	}
	w.starting = true
	s.eng.AfterE(s.cfg.P.StealCost, rtcSteal, w, nil, uint64(victim))
}

// WorkerIdleFraction returns the mean idle fraction across cores.
func (s *Pool) WorkerIdleFraction(now sim.Time) float64 {
	var sum float64
	for _, w := range s.workers {
		sum += w.exec.Track.IdleFraction(now)
	}
	return sum / float64(len(s.workers))
}

// ArmWorkerTrackers starts busy-time accounting at now.
func (s *Pool) ArmWorkerTrackers(now sim.Time) {
	for _, w := range s.workers {
		w.exec.Track.Arm(now)
	}
}

// QueueLens returns a snapshot of per-core queue depths (load-imbalance
// diagnostics).
func (s *Pool) QueueLens() []int {
	out := make([]int, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.q.Len()
	}
	return out
}

// Completions returns total completed requests.
func (s *Pool) Completions() uint64 {
	var n uint64
	for _, w := range s.workers {
		n += w.exec.Completions()
	}
	return n
}

// String describes the pool configuration.
func (s *Pool) String() string {
	return fmt.Sprintf("%s(workers=%d)", s.Name(), len(s.workers))
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash
// standing in for the NIC's Toeplitz RSS hash.
//
//mindgap:noalloc
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
