package core

import (
	"fmt"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/cores"
	"mindgap/internal/fabric"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// centralEvent is one input to a Central dispatcher; it shares Offload's
// event kinds (evNew, evFinish, evPreempted) and input classes.
type centralEvent struct {
	kind   qEventKind
	worker int
	req    *task.Request
}

// Central is a dispatcher that sits right beside the cores it feeds —
// vanilla Shinjuku's dispatcher hyperthread with its cache-line flags,
// RPCValet's integrated NI — as opposed to Offload's, which sits across
// the NIC↔host gap. It is Logic on one serial stage that round-robins
// between new arrivals and worker notifications, joined to every worker by
// a pair of fixed-latency links, and it installs itself as the host's
// Finished, Preempted and Account hooks.
type Central struct {
	eng   *sim.Engine
	pr    *probe.Probe
	host  *cores.Host
	lgc   *Logic
	stage *fabric.MultiStage[centralEvent]
	// down and up are the per-worker dispatcher→core and core→dispatcher
	// channels.
	down, up []*fabric.Link
	// asScratch is the reusable assignment buffer for the scheduling calls
	// (consumed synchronously per event).
	asScratch []Assignment
}

// NewCentral builds the dispatcher stage name over host's workers. It
// spends dispatch per new or preempted request and completion per FINISH
// flag; hop is the one-way latency of each worker channel.
func NewCentral(eng *sim.Engine, pr *probe.Probe, host *cores.Host, lgc *Logic, name string, dispatch, completion, hop time.Duration) *Central {
	c := &Central{eng: eng, pr: pr, host: host, lgc: lgc}
	c.stage = fabric.NewMultiStage[centralEvent](eng, name, 2, nil,
		func(ev centralEvent) time.Duration {
			if ev.kind == evFinish {
				return completion
			}
			return dispatch
		},
		c.handle)
	for i := range host.Workers {
		c.down = append(c.down, fabric.NewLink(eng, fmt.Sprintf("%s→w%d", name, i), fabric.LinkConfig{Latency: hop}))
		c.up = append(c.up, fabric.NewLink(eng, fmt.Sprintf("w%d→%s", i, name), fabric.LinkConfig{Latency: hop}))
	}
	host.Finished = c.finished
	host.Preempted = c.preempted
	host.Account = func(l *probe.Ledger) { l.K, l.Outstanding = lgc.k, lgc.outstanding }
	return c
}

// Submit hands a newly arrived request to the dispatcher.
//
//mindgap:noalloc
func (c *Central) Submit(req *task.Request) {
	c.stage.Submit(qcNew, centralEvent{kind: evNew, req: req})
}

// QueueLen exposes the central queue depth.
func (c *Central) QueueLen() int { return c.lgc.QueueLen() }

// handle runs on the dispatcher.
//
//mindgap:noalloc
func (c *Central) handle(ev centralEvent) {
	as := c.asScratch[:0]
	now := c.eng.Now()
	switch ev.kind {
	case evNew:
		c.pr.Enqueue(now, ev.req.ID)
		as = c.lgc.EnqueueTo(as, now, ev.req)
	case evFinish:
		as = c.lgc.CompleteTo(as, ev.worker)
	case evPreempted:
		c.pr.Enqueue(now, ev.req.ID)
		as = c.lgc.PreemptedTo(as, now, ev.worker, ev.req)
	}
	for _, a := range as {
		c.pr.Dispatch(now, a.Req.ID, a.Worker)
		auditDispatch(c.pr, c.host, c.lgc, now, a)
		c.down[a.Worker].SendT(0, cores.DeliverE, c.host.Workers[a.Worker], a.Req, 0)
	}
	c.asScratch = as[:0]
}

// finished raises the worker's completion flag: a cache-line (or NI
// doorbell) write, free for the worker next to packet construction.
//
//mindgap:noalloc
func (c *Central) finished(w *cores.Worker, _ *task.Request) {
	c.up[w.ID].SendT(0, centralFinish, c, nil, uint64(w.ID))
	w.Release()
}

// preempted hands the preempted request's descriptor back.
//
//mindgap:noalloc
func (c *Central) preempted(w *cores.Worker, req *task.Request) {
	c.up[w.ID].SendT(0, centralPreempted, c, req, uint64(w.ID))
	w.Release()
}

// centralFinish fires when a completion flag reaches the dispatcher.
//
//mindgap:noalloc
func centralFinish(recv, _ any, worker uint64) {
	recv.(*Central).stage.Submit(qcNotif, centralEvent{kind: evFinish, worker: int(worker)})
}

// centralPreempted fires when a preemption flag reaches the dispatcher.
//
//mindgap:noalloc
func centralPreempted(recv, obj any, worker uint64) {
	recv.(*Central).stage.Submit(qcNotif, centralEvent{kind: evPreempted, worker: int(worker), req: obj.(*task.Request)})
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
