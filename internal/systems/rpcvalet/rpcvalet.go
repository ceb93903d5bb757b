// Package rpcvalet models RPCValet (Daglis et al., ASPLOS '19) as described
// in §2.1: a network interface integrated next to the cores maintains a
// single hardware request queue and dispatches each request to an idle core
// with near-zero communication latency. It eliminates load imbalance like
// Shinjuku but lacks preemption — so it shines on uniform service times and
// suffers head-of-line blocking on dispersive ones (§2.2 item 2).
package rpcvalet

import (
	"fmt"

	"mindgap/internal/core"
	"mindgap/internal/cores"
	"mindgap/internal/fabric"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// Config describes one RPCValet deployment.
type Config struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the number of cores served by the integrated NI.
	Workers int
}

type niEventKind uint8

const (
	evNew niEventKind = iota
	evFinish
)

type niEvent struct {
	kind   niEventKind
	worker int
	req    *task.Request
}

const (
	ncNew = iota
	ncNotif
)

// Valet is the simulated RPCValet system.
type Valet struct {
	eng  *sim.Engine
	cfg  Config
	lgc  *core.Logic
	done func(*task.Request)
	pr   *probe.Probe

	ingress *fabric.Link
	egress  *fabric.Link
	ni      *fabric.MultiStage[niEvent]
	workers []*worker

	// asScratch is the reusable assignment buffer for the NI's scheduling
	// calls (consumed synchronously per event).
	asScratch []core.Assignment
}

type worker struct {
	sys      *Valet
	id       int
	exec     *cores.Exec
	fromNI   *fabric.Link
	toNI     *fabric.Link
	starting bool
	post     bool
	stash    []*task.Request
}

// New builds the system. done runs when the client receives each response;
// pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *Valet {
	if cfg.Workers <= 0 {
		panic("rpcvalet: need workers")
	}
	if done == nil {
		panic("rpcvalet: need a completion callback")
	}
	p := cfg.P
	s := &Valet{
		eng: eng, cfg: cfg,
		lgc:  core.NewLogic(cfg.Workers, 1, core.LeastOutstanding),
		done: done,
		pr:   pr,
	}
	s.ingress = fabric.NewLink(eng, "client→ni", fabric.LinkConfig{
		Latency: p.ClientWireOneWay, BandwidthBps: p.WireBandwidth,
	})
	s.egress = fabric.NewLink(eng, "ni→client", fabric.LinkConfig{
		Latency: p.ClientWireOneWay, BandwidthBps: p.WireBandwidth,
	})
	// The NI is dedicated hardware: per-request cost is tens of ns.
	s.ni = fabric.NewMultiStage[niEvent](eng, "ni-queue", 2, nil,
		fabric.FixedCost[niEvent](p.RPCValetDispatchCost),
		s.handleNIEvent)
	execCfg := cores.ExecConfig{
		Clock:   p.HostClock,
		Timer:   p.HostTimer,
		Slice:   0, // no preemption: RPCValet's structural weakness
		SelfArm: false,
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			sys: s, id: i,
			fromNI: fabric.NewLink(eng, fmt.Sprintf("ni→w%d", i),
				fabric.LinkConfig{Latency: p.RPCValetLinkLatency}),
			toNI: fabric.NewLink(eng, fmt.Sprintf("w%d→ni", i),
				fabric.LinkConfig{Latency: p.RPCValetLinkLatency}),
		}
		w.exec = cores.NewExec(eng, i, execCfg, w.onComplete, nil)
		s.workers = append(s.workers, w)
	}
	return s
}

// Name implements the experiment System interface.
func (s *Valet) Name() string { return "rpcvalet" }

// Inject admits a client request at the current instant.
func (s *Valet) Inject(req *task.Request) {
	s.pr.Arrive(s.eng.Now(), req.ID, req.Service)
	s.ingress.SendT(s.cfg.P.RequestFrameBytes, niIngress, s, req, 0)
}

// niIngress fires when a request frame reaches the integrated NI.
//
//mindgap:noalloc
func niIngress(recv, obj any, _ uint64) {
	s := recv.(*Valet)
	req := obj.(*task.Request)
	s.pr.Ingress(s.eng.Now(), req.ID)
	s.ni.Submit(ncNew, niEvent{kind: evNew, req: req})
}

//mindgap:noalloc
func (s *Valet) handleNIEvent(ev niEvent) {
	as := s.asScratch[:0]
	now := s.eng.Now()
	switch ev.kind {
	case evNew:
		s.pr.Enqueue(now, ev.req.ID)
		as = s.lgc.EnqueueTo(as, now, ev.req)
	case evFinish:
		as = s.lgc.CompleteTo(as, ev.worker)
	}
	for _, a := range as {
		s.pr.Dispatch(now, a.Req.ID, a.Worker)
		w := s.workers[a.Worker]
		w.fromNI.SendT(0, niDeliver, w, a.Req, 0)
	}
	s.asScratch = as[:0]
}

// niDeliver fires when an assignment crosses the NI→core link.
//
//mindgap:noalloc
func niDeliver(recv, obj any, _ uint64) {
	recv.(*worker).receive(obj.(*task.Request))
}

//mindgap:noalloc
func (w *worker) receive(req *task.Request) {
	w.sys.pr.HostArrive(w.sys.eng.Now(), req.ID)
	w.stash = append(w.stash, req)
	w.maybeStart()
}

//mindgap:noalloc
func (w *worker) maybeStart() {
	if w.exec.Busy() || w.starting || w.post || len(w.stash) == 0 {
		return
	}
	w.starting = true
	w.sys.eng.AfterE(w.sys.cfg.P.PickupCost(false), niPickup, w, nil, 0)
}

// niPickup fires once the pickup cost has elapsed.
//
//mindgap:noalloc
func niPickup(recv, _ any, _ uint64) {
	w := recv.(*worker)
	w.starting = false
	if len(w.stash) == 0 {
		return
	}
	req := w.stash[0]
	w.stash = w.stash[1:]
	w.sys.pr.Start(w.sys.eng.Now(), req.ID, w.id)
	w.exec.Start(req)
}

//mindgap:noalloc
func (w *worker) onComplete(req *task.Request) {
	w.sys.pr.Complete(w.sys.eng.Now(), req.ID, w.id)
	w.post = true
	w.sys.eng.AfterE(w.sys.cfg.P.WorkerResponseCost, niResponseBuilt, w, req, 0)
}

// niResponseBuilt fires once the worker has built the response packet.
//
//mindgap:noalloc
func niResponseBuilt(recv, obj any, _ uint64) {
	w := recv.(*worker)
	sys := w.sys
	req := obj.(*task.Request)
	sys.egress.SendT(sys.cfg.P.ResponseFrameBytes, niRespond, sys, req, 0)
	w.toNI.SendT(0, niNotifyFinish, w, nil, 0)
	w.post = false
	w.maybeStart()
}

// niRespond fires when the response frame reaches the client.
//
//mindgap:noalloc
func niRespond(recv, obj any, _ uint64) {
	s := recv.(*Valet)
	req := obj.(*task.Request)
	s.pr.Respond(s.eng.Now(), req.ID)
	s.done(req)
}

// niNotifyFinish fires when the completion notification reaches the NI.
//
//mindgap:noalloc
func niNotifyFinish(recv, _ any, _ uint64) {
	w := recv.(*worker)
	w.sys.ni.Submit(ncNotif, niEvent{kind: evFinish, worker: w.id})
}

// WorkerIdleFraction returns the mean idle fraction across cores.
func (s *Valet) WorkerIdleFraction(now sim.Time) float64 {
	var sum float64
	for _, w := range s.workers {
		sum += w.exec.Track.IdleFraction(now)
	}
	return sum / float64(len(s.workers))
}

// ArmWorkerTrackers starts busy-time accounting at now.
func (s *Valet) ArmWorkerTrackers(now sim.Time) {
	for _, w := range s.workers {
		w.exec.Track.Arm(now)
	}
}

// QueueLen exposes the central hardware queue depth.
func (s *Valet) QueueLen() int { return s.lgc.QueueLen() }

// Completions returns total completed requests.
func (s *Valet) Completions() uint64 {
	var n uint64
	for _, w := range s.workers {
		n += w.exec.Completions()
	}
	return n
}
