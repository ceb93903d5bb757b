// Package erss models Elastic RSS (Rucker et al., APNet '19), the §5.1
// related system: hardware RSS whose set of provisioned cores grows and
// shrinks with load at microsecond scale, driven by fine-grained host load
// feedback — but with the scheduling policy itself fixed in hardware and
// no preemption.
//
// eRSS sits between plain RSS and the informed NIC scheduler: it uses load
// feedback (like the paper's proposal) but only to resize the hash target
// set, so it repairs provisioning, not head-of-line blocking. The contrast
// motivates the paper's claim that the *policy*, not just parameters,
// should be programmable.
package erss

import (
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/cores"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// The provisioning loop: the set never shrinks below minWorkers cores, and
// every interval (eRSS adapts "on the µs scale") it compares the
// per-provisioned-core queue depth with two watermarks: above upThreshold
// it adds a core, below downThreshold it removes one.
const (
	minWorkers    = 1
	interval      = 20 * time.Microsecond
	upThreshold   = 2.0
	downThreshold = 0.5
)

// Config describes one eRSS deployment.
type Config struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the maximum number of provisionable cores.
	Workers int
}

// ERSS is the simulated Elastic RSS system: the shared host-worker kit
// with RSS steering over an elastic prefix of the cores. WorkerIdleFraction
// averages over all cores, deprovisioned ones included — eRSS's efficiency
// win is that idle cores can do other work, which the statistic surfaces.
type ERSS struct {
	*cores.Host
	eng *sim.Engine
	cfg Config
	pr  *probe.Probe

	// provisioned is the current RSS indirection set size: arrivals hash
	// into workers [0, provisioned).
	provisioned int
	resizes     uint64
}

// New builds the system. done runs when the client receives each response;
// pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *ERSS {
	p := cfg.P
	s := &ERSS{eng: eng, cfg: cfg, pr: pr, provisioned: minWorkers}
	// No Slice: no preemption is eRSS's fixed policy. Each core parses its
	// own packets, as in rtc.
	s.Host = cores.NewHost(eng, cores.HostConfig{
		P: p, Workers: cfg.Workers, Pickup: p.HostNetworkerCost + p.PickupCost(false),
	}, pr, s.steer, done)
	// The reprovisioning loop runs on the NIC from host load feedback.
	eng.AfterE(interval, erssReprovision, s, nil, 0)
	return s
}

// Name implements the experiment System interface.
func (s *ERSS) Name() string { return "erss" }

// steer runs when a request frame reaches the NIC: RSS hash over the
// provisioned set only.
//
//mindgap:noalloc
func (s *ERSS) steer(req *task.Request) {
	w := s.Workers[int(cores.RSSHash(req.ID)%uint64(s.provisioned))]
	// As in rtc, steering collapses ingress, dispatch and DMA into one
	// instant, and the hash holds no belief about core backlogs: load
	// feedback resizes the set, it does not pick the core.
	now := s.eng.Now()
	s.pr.Ingress(now, req.ID)
	s.pr.Enqueue(now, req.ID)
	s.pr.Dispatch(now, req.ID, w.ID)
	if truth := s.AuditTruth(); truth != nil {
		s.pr.Audit(attr.Decision{At: now, ReqID: req.ID, Chosen: w.ID, Truth: truth})
	}
	w.Deliver(req)
}

// erssReprovision is the periodic reprovisioning tick.
//
//mindgap:noalloc
func erssReprovision(recv, _ any, _ uint64) {
	recv.(*ERSS).reprovision()
}

// reprovision implements the elastic part: watermark-based resizing of the
// RSS indirection set from instantaneous queue-depth feedback.
//
//mindgap:noalloc
func (s *ERSS) reprovision() {
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
		s.resizes++
	case perCore < downThreshold && s.provisioned > minWorkers:
		// A deprovisioned core finishes its queue; new arrivals just stop
		// hashing to it.
		s.provisioned--
		s.resizes++
	}
	s.eng.AfterE(interval, erssReprovision, s, nil, 0)
}

// Provisioned returns the current RSS set size.
func (s *ERSS) Provisioned() int { return s.provisioned }

// Resizes returns how many reprovisioning steps have fired.
func (s *ERSS) Resizes() uint64 { return s.resizes }
