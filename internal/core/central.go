package core

import (
	"fmt"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/cores"
	"mindgap/internal/fabric"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// CentralMode is where a Central dispatcher sits and what its channel
// costs (§2.1).
type CentralMode uint8

const (
	// HostCore is vanilla Shinjuku (Kaffes et al., NSDI '19): a networker
	// thread and the dispatcher on hyperthreads of one host core, cache-line
	// channels to the workers. It burns a physical core, so at equal
	// hardware it runs one worker fewer than Shinjuku-Offload (Figures 2, 4,
	// 5), but its dispatcher handles ~5 M req/s (200 ns per request), far
	// more than the offloaded ARM dispatcher, which is why it wins Figure 6.
	HostCore CentralMode = iota
	// IntegratedNI is RPCValet (Daglis et al., ASPLOS '19): a network
	// interface next to the cores keeps one hardware queue and dispatches
	// straight from ingress at tens of ns per request. It removes load
	// imbalance like Shinjuku but has no preemption, so dispersive service
	// times block it head-of-line (§2.2 item 2).
	IntegratedNI
)

// CentralConfig describes one deployment of a dispatcher beside the cores.
type CentralConfig struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the number of worker cores (a HostCore dispatcher's
	// physical core is additional and implicit).
	Workers int
	// Slice is the preemption quantum: the dispatcher tracks when each
	// request started and posts an interrupt when its slice expires. Zero
	// runs to completion.
	Slice time.Duration
	// Sockets models a multi-socket host (§1): the NIC DDIO-places every
	// packet into socket 0's LLC (where the networker runs); workers on
	// other sockets pay P.NUMAPenalty on pickup because the dispatcher
	// picks workers with no knowledge of packet placement. 0 or 1 means a
	// single socket.
	Sockets int
	// Mode places the dispatcher.
	Mode CentralMode
}

// Central is a system whose dispatcher sits right beside the cores it
// feeds — vanilla Shinjuku's hyperthread with its cache-line flags,
// RPCValet's integrated NI — as opposed to Offload's, which sits across the
// NIC↔host gap. It is Logic (one credit per core, idle-first FIFO) on one
// serial stage that round-robins between new arrivals and worker
// notifications, joined to every worker by a pair of fixed-latency links,
// on the shared host-worker kit.
type Central struct {
	*cores.Host
	eng   *sim.Engine
	cfg   CentralConfig
	pr    *probe.Probe
	lgc   *Logic
	stage *fabric.MultiStage[qEvent]
	ports []centralPort
	// asScratch is the reusable assignment buffer for the scheduling calls
	// (consumed synchronously per event).
	asScratch []Assignment
}

// centralPort is one worker's pair of channels, dispatcher→core and
// core→dispatcher; it receives the worker's flags.
type centralPort struct {
	c        *Central
	worker   int
	down, up *fabric.Link
}

// NewCentral builds the system. done runs at the instant the client
// receives each response; pr (optional) carries the run's observers.
func NewCentral(eng *sim.Engine, cfg CentralConfig, pr *probe.Probe, done func(*task.Request)) *Central {
	p := cfg.P
	c := &Central{eng: eng, cfg: cfg, pr: pr}
	// No SelfArm: preemption is dispatcher-posted.
	c.Host = cores.NewHost(eng, cores.HostConfig{P: p, Workers: cfg.Workers, Pickup: p.PickupCost(), Slice: cfg.Slice},
		pr, c.submit, done)
	for _, w := range c.Workers {
		if c.socket(w.ID) != 0 {
			// The packet sits in socket 0's LLC; a remote worker fetches it
			// across the interconnect.
			w.Pickup += p.NUMAPenalty
		}
	}
	if cfg.Slice > 0 {
		c.Started = centralStarted
	}
	c.lgc = NewLogic(cfg.Workers, 1, LeastOutstanding)
	// The NI is dedicated hardware: per-request cost is tens of ns.
	name, dispatch, completion, hop := "ni-queue", p.RPCValetDispatchCost, p.RPCValetDispatchCost, p.RPCValetLinkLatency
	if cfg.Mode == HostCore {
		name, dispatch, completion, hop = "host-dispatcher", p.HostDispatchCost, p.HostCompletionCost, p.CacheLine
		// The networker thread and the cache-line channel behind it are one
		// FIFO pipe into the dispatcher, the rest of the front; the
		// integrated NI submits at the NIC port.
		c.Front(fabric.NewLink(eng, "host-networker", fabric.LinkConfig{Cost: p.HostNetworkerCost, Latency: p.CacheLine, Front: true}), nil, nil)
	}
	c.stage = fabric.NewMultiStage[qEvent](eng, name, 2, nil,
		func(ev qEvent) time.Duration {
			if ev.kind == evFinish {
				return completion
			}
			return dispatch
		},
		c.handle)
	c.ports = make([]centralPort, cfg.Workers)
	for i := range c.ports {
		c.ports[i] = centralPort{c: c, worker: i,
			down: fabric.NewLink(eng, fmt.Sprintf("%s→w%d", name, i), fabric.LinkConfig{Latency: hop}),
			up:   fabric.NewLink(eng, fmt.Sprintf("w%d→%s", i, name), fabric.LinkConfig{Latency: hop})}
	}
	c.Finished, c.Preempted = c.finished, c.preempted
	c.Account = func(l *probe.Ledger) { l.K, l.Outstanding = c.lgc.k, c.lgc.outstanding }
	return c
}

// Name implements the experiment System interface.
func (c *Central) Name() string {
	if c.cfg.Mode == IntegratedNI {
		return "rpcvalet"
	}
	return "shinjuku"
}

// QueueLen exposes the central queue depth.
func (c *Central) QueueLen() int { return c.lgc.QueueLen() }

// socket returns worker id's socket index (workers are split into
// contiguous blocks across sockets).
func (c *Central) socket(id int) int {
	if c.cfg.Sockets <= 1 {
		return 0
	}
	return id * c.cfg.Sockets / c.cfg.Workers
}

// submit hands a newly arrived request to the dispatcher: the NIC port
// steers it there, or HostCore's networker once it has crossed it.
//
//mindgap:noalloc
func (c *Central) submit(req *task.Request) {
	c.stage.Submit(qcNew, qEvent{kind: evNew, req: req, id: req.ID})
}

// centralStarted is the Started hook: the dispatcher counts the slice down
// from the actual execution start at no cost of its own — the real
// implementation folds it into its polling loop — while the worker pays
// for the interrupt's receipt in Exec.Interrupt.
//
//mindgap:noalloc
func centralStarted(w *cores.Worker, req *task.Request) { w.PostSlice(req, 0) }

// handle runs on the dispatcher.
//
//mindgap:noalloc
func (c *Central) handle(ev qEvent) {
	as := c.asScratch[:0]
	now := c.eng.Now()
	switch ev.kind {
	case evNew:
		c.pr.Enqueue(now, ev.id)
		as = c.lgc.EnqueueTo(as, now, ev.req)
	case evFinish:
		as = c.lgc.CompleteTo(as, ev.worker)
	case evPreempted:
		c.pr.Enqueue(now, ev.id)
		as = c.lgc.PreemptedTo(as, now, ev.worker, ev.req)
	}
	for _, a := range as {
		c.pr.Dispatch(now, a.Req.ID, a.Worker)
		auditDispatch(c.pr, c.Host, c.lgc, now, a)
		c.ports[a.Worker].down.SendT(0, cores.DeliverE, c.Workers[a.Worker], a.Req, 0)
	}
	c.asScratch = as[:0]
}

// finished raises the worker's completion flag as the response is built: a
// cache-line (or NI doorbell) write, free for the worker next to packet
// construction.
//
//mindgap:noalloc
func (c *Central) finished(w *cores.Worker, _ *task.Request, built sim.Time) {
	c.ports[w.ID].up.SendAtT(built, 0, centralFinish, &c.ports[w.ID], nil, 0)
	w.ReleaseAt(built)
}

// preempted hands the preempted request's descriptor back, its ID
// snapshotted as the flag is raised.
//
//mindgap:noalloc
func (c *Central) preempted(w *cores.Worker, req *task.Request) {
	c.ports[w.ID].up.SendT(0, centralPreempted, &c.ports[w.ID], req, req.ID)
	w.Release()
}

// centralFinish fires when a completion flag reaches the dispatcher.
//
//mindgap:noalloc
func centralFinish(recv, _ any, _ uint64) {
	p := recv.(*centralPort)
	p.c.stage.Submit(qcNotif, qEvent{kind: evFinish, worker: p.worker})
}

// centralPreempted fires when a preemption flag reaches the dispatcher.
//
//mindgap:noalloc
func centralPreempted(recv, obj any, id uint64) {
	p := recv.(*centralPort)
	p.c.stage.Submit(qcNotif, qEvent{kind: evPreempted, worker: p.worker, req: obj.(*task.Request), id: id})
}

// auditDispatch presents one dispatch decision to the attribution layer:
// the ground-truth resident backlog of every worker at this instant, plus
// the estimate (and its staleness) the scheduler acted on, when it held
// one. The truth scan touches every worker, so it is skipped unless a
// collector is attached.
//
//mindgap:noalloc
func auditDispatch(pr *probe.Probe, host *cores.Host, lgc *Logic, now sim.Time, a Assignment) {
	truth := host.AuditTruth()
	if truth == nil {
		return
	}
	d := attr.Decision{At: now, ReqID: a.Req.ID, Chosen: a.Worker, Truth: truth}
	d.Estimate, d.EstimateAge, d.Informed = lgc.EstimateFor(now, a.Worker)
	pr.Audit(d)
}
