// Package rtc implements the steered baselines: the run-to-completion
// family of §2.1 and the §5.1 related system Elastic RSS, where the NIC
// steers each packet straight to a worker core and that core does all
// processing with no preemption.
//
//   - IX-style RSS (SteerHash): the NIC hashes the 5-tuple and picks a core
//     pseudo-randomly.
//   - MICA-style Flow Director (SteerKey): the NIC steers by application
//     key, giving cache locality but inheriting key skew.
//   - ZygOS (SteerHash + WorkStealing): idle cores steal queued requests
//     from busy cores, repairing load imbalance at an inter-core cost.
//   - Elastic RSS (SteerElastic; Rucker et al., APNet '19): RSS whose set
//     of provisioned cores grows and shrinks with load at microsecond
//     scale, driven by fine-grained host load feedback.
//
// These baselines demonstrate the two fundamental problems of §2.2: load
// imbalance (no centralized queue) and head-of-line blocking (no
// preemption).
//
// eRSS sits between plain RSS and the informed NIC scheduler: it uses load
// feedback (like the paper's proposal) but only to resize the hash target
// set, so it repairs provisioning, not head-of-line blocking. The contrast
// motivates the paper's claim that the *policy*, not just parameters,
// should be programmable.
package rtc

import (
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/cores"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/task"
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
	// SteerElastic models Elastic RSS: SteerHash over a provisioned prefix
	// of the cores that the reprovisioning loop resizes.
	SteerElastic
)

// eRSS's provisioning loop: the set never shrinks below minWorkers cores,
// and every interval (eRSS adapts "on the µs scale") it compares the
// per-provisioned-core queue depth with two watermarks: above upThreshold
// it adds a core, below downThreshold it removes one.
const (
	minWorkers    = 1
	interval      = 20 * time.Microsecond
	upThreshold   = 2.0
	downThreshold = 0.5
)

// Config describes one steered deployment.
type Config struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the number of polling worker cores (eRSS's maximum).
	Workers int
	// Steering picks the NIC steering function.
	Steering Steering
	// WorkStealing enables ZygOS-style stealing from sibling queues.
	WorkStealing bool
}

// Pool is the simulated steered system: the shared host-worker kit with
// the NIC steering straight into each core's inbox. Under SteerElastic,
// WorkerIdleFraction averages over all cores, deprovisioned ones included
// — eRSS's efficiency win is that idle cores can do other work, which the
// statistic surfaces.
type Pool struct {
	*cores.Host
	eng *sim.Engine
	cfg Config
	pr  *probe.Probe
	// provisioned is the hash target set: workers [0, provisioned).
	provisioned int
}

// New builds the pool. done runs at the instant the client receives each
// response; pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *Pool {
	p := cfg.P
	s := &Pool{eng: eng, cfg: cfg, pr: pr, provisioned: cfg.Workers}
	s.Host = cores.NewHost(eng, cores.HostConfig{
		P: p, Workers: cfg.Workers,
		// No Slice — run to completion is the defining property — and a
		// run-to-completion core does its own packet parsing (that is the
		// point: no inter-core handoff).
		Pickup: p.HostNetworkerCost + p.PickupCost(),
	}, pr, s.steer, done)
	if cfg.WorkStealing {
		s.Finished = s.finished
	}
	if cfg.Steering == SteerElastic {
		// The reprovisioning loop runs on the NIC from host load feedback.
		s.provisioned = minWorkers
		eng.AfterE(interval, elasticReprovision, s, nil, 0)
	}
	return s
}

// Name implements the experiment System interface.
func (s *Pool) Name() string {
	switch {
	case s.cfg.WorkStealing:
		return "zygos"
	case s.cfg.Steering == SteerKey:
		return "flow-director"
	case s.cfg.Steering == SteerElastic:
		return "erss"
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
		w = int(cores.RSSHash(req.ID) % uint64(s.provisioned))
	}
	now := s.eng.Now()
	target := s.Workers[w]
	// Steering collapses ingress-processing, dispatch and the NIC→core
	// DMA into the port instant: the request's wait from here to Start is
	// pure host-queue time, which is where run-to-completion tails live.
	s.pr.Enqueue(now, req.ID)
	s.pr.Dispatch(now, req.ID, w)
	// Hash steering is uninformed by construction: the NIC holds no belief
	// about core backlogs (eRSS's load feedback resizes the set, it does
	// not pick the core), so the audit measures how often blind placement
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

// finished files the steal scan at the built instant, where it reads the
// siblings.
//
//mindgap:noalloc
func (s *Pool) finished(w *cores.Worker, _ *task.Request, built sim.Time) {
	s.eng.AtE(built, zygosBuilt, s, w, 0)
}

// zygosBuilt fires once a stealing core has built its response: if
// releasing it left the core idle, it steals from the longest sibling
// queue.
//
//mindgap:noalloc
func zygosBuilt(recv, obj any, _ uint64) {
	s, w := recv.(*Pool), obj.(*cores.Worker)
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

// elasticReprovision is eRSS's periodic reprovisioning tick.
//
//mindgap:noalloc
func elasticReprovision(recv, _ any, _ uint64) {
	recv.(*Pool).reprovision()
}

// reprovision implements the elastic part: watermark-based resizing of the
// RSS indirection set from instantaneous queue-depth feedback.
//
//mindgap:noalloc
func (s *Pool) reprovision() {
	backlog := 0
	for i := 0; i < s.provisioned; i++ {
		backlog += s.Workers[i].Queued()
		if s.Workers[i].Exec.Busy() {
			backlog++
		}
	}
	perCore := float64(backlog) / float64(s.provisioned)
	switch {
	case perCore > upThreshold && s.provisioned < s.cfg.Workers:
		s.provisioned++
	case perCore < downThreshold && s.provisioned > minWorkers:
		// A deprovisioned core finishes its queue; new arrivals just stop
		// hashing to it.
		s.provisioned--
	}
	s.eng.AfterE(interval, elasticReprovision, s, nil, 0)
}
