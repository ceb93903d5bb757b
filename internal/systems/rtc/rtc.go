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
	"mindgap/internal/params"
	"mindgap/internal/probe"
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

// Pool is the simulated run-to-completion system: the shared host-worker
// kit with the NIC steering straight into each core's inbox.
type Pool struct {
	*cores.Host
	eng *sim.Engine
	cfg Config
	pr  *probe.Probe
}

// New builds the pool. done runs at the instant the client receives each
// response; pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *Pool {
	p := cfg.P
	s := &Pool{eng: eng, cfg: cfg, pr: pr}
	s.Host = cores.NewHost(eng, cores.HostConfig{
		P: p, Workers: cfg.Workers,
		// No Slice — run to completion is the defining property — and a
		// run-to-completion core does its own packet parsing (that is the
		// point: no inter-core handoff).
		Pickup: p.HostNetworkerCost + p.PickupCost(false),
	}, pr, s.steer, done)
	if cfg.WorkStealing {
		s.Finished = s.finished
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

// steer implements the NIC steering function.
//
//mindgap:noalloc
func (s *Pool) steer(req *task.Request) {
	var w int
	switch s.cfg.Steering {
	case SteerKey:
		w = int(cores.RSSHash(req.Key) % uint64(len(s.Workers)))
	default:
		// RSS: hash the flow identity. Open-loop clients use a fresh
		// ephemeral port per request, so the request ID (whose high word
		// is the client) stands in for the 5-tuple.
		w = int(cores.RSSHash(req.ID) % uint64(len(s.Workers)))
	}
	now := s.eng.Now()
	target := s.Workers[w]
	if s.cfg.QueueCap > 0 && target.Queued() >= s.cfg.QueueCap {
		s.pr.Drop(now, req.ID, w, trace.DropQueueCap)
		return
	}
	// Steering collapses ingress-processing, dispatch and the NIC→core
	// DMA into one instant: the request's wait from here to Start is pure
	// host-queue time, which is where run-to-completion tails live.
	s.pr.Ingress(now, req.ID)
	s.pr.Enqueue(now, req.ID)
	s.pr.Dispatch(now, req.ID, w)
	// Hash steering is uninformed by construction: the NIC holds no belief
	// about core backlogs, so the audit measures how often blind placement
	// lands on a busy core while an idle one waits — the load imbalance of
	// §2.2 stated as a mis-dispatch rate.
	if truth := s.AuditTruth(); truth != nil {
		s.pr.Audit(attr.Decision{At: now, ReqID: req.ID, Chosen: w, Truth: truth})
	}
	target.Deliver(req)
	// A queued request on a busy core is stealable work: wake an idle
	// sibling (ZygOS's polling idle cores notice promptly).
	if s.cfg.WorkStealing && target.Running() {
		s.wakeStealer(target)
	}
}

// wakeStealer finds an idle worker and has it steal from victim's queue.
//
//mindgap:noalloc
func (s *Pool) wakeStealer(victim *cores.Worker) {
	for _, w := range s.Workers {
		if w.Idle() {
			w.StealAfter(s.cfg.P.StealCost, victim)
			return
		}
	}
}

// finished runs once a stealing core has sent its response: if that left
// it idle, it steals from the longest sibling queue.
//
//mindgap:noalloc
func (s *Pool) finished(w *cores.Worker, _ *task.Request) {
	w.Release()
	if !w.Idle() {
		return
	}
	var victim *cores.Worker
	best := 0
	for _, v := range s.Workers {
		if v != w && v.Queued() > best {
			victim, best = v, v.Queued()
		}
	}
	if victim != nil {
		w.StealAfter(s.cfg.P.StealCost, victim)
	}
}

// QueueLens returns a snapshot of per-core queue depths (load-imbalance
// diagnostics).
func (s *Pool) QueueLens() []int {
	out := make([]int, len(s.Workers))
	for i, w := range s.Workers {
		out[i] = w.Queued()
	}
	return out
}

// String describes the pool configuration.
func (s *Pool) String() string {
	return fmt.Sprintf("%s(workers=%d)", s.Name(), len(s.Workers))
}
