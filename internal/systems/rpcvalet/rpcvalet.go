// Package rpcvalet models RPCValet (Daglis et al., ASPLOS '19) as described
// in §2.1: a network interface integrated next to the cores maintains a
// single hardware request queue and dispatches each request to an idle core
// with near-zero communication latency. It eliminates load imbalance like
// Shinjuku but lacks preemption — so it shines on uniform service times and
// suffers head-of-line blocking on dispersive ones (§2.2 item 2).
package rpcvalet

import (
	"mindgap/internal/core"
	"mindgap/internal/cores"
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

// Valet is the simulated RPCValet system: the shared host-worker kit fed
// by a core.Central dispatcher standing for the integrated NI.
type Valet struct {
	*cores.Host
	eng *sim.Engine
	pr  *probe.Probe
	ni  *core.Central
}

// New builds the system. done runs when the client receives each response;
// pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *Valet {
	p := cfg.P
	s := &Valet{eng: eng, pr: pr}
	// No Slice: the lack of preemption is RPCValet's structural weakness.
	s.Host = cores.NewHost(eng, cores.HostConfig{P: p, Workers: cfg.Workers, Pickup: p.PickupCost(false)},
		pr, s.ingress, done)
	// The NI is dedicated hardware: per-request cost is tens of ns.
	s.ni = core.NewCentral(eng, pr, s.Host, core.NewLogic(cfg.Workers, 1, core.LeastOutstanding),
		"ni-queue", p.RPCValetDispatchCost, p.RPCValetDispatchCost, p.RPCValetLinkLatency)
	return s
}

// Name implements the experiment System interface.
func (s *Valet) Name() string { return "rpcvalet" }

// ingress runs when a request frame reaches the integrated NI.
//
//mindgap:noalloc
func (s *Valet) ingress(req *task.Request) {
	s.pr.Ingress(s.eng.Now(), req.ID)
	s.ni.Submit(req)
}

// QueueLen exposes the central hardware queue depth.
func (s *Valet) QueueLen() int { return s.ni.QueueLen() }
