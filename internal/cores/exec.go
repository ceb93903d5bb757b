// Package cores models host worker cores executing requests, including the
// preemption machinery of §3.4.4: arming the local APIC timer, taking the
// timer (or posted) interrupt, and saving/restoring request contexts.
//
// Two preemption styles exist in the paper and both are modelled:
//
//   - Self-armed (Shinjuku-Offload): the worker arms a local timer when it
//     picks up a request and preempts itself on expiry, because the NIC has
//     no low-latency interrupt path to host cores.
//   - Externally posted (vanilla Shinjuku): the dispatcher tracks elapsed
//     time and posts an interrupt to the worker core.
package cores

import (
	"time"

	"mindgap/internal/params"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// ExecConfig fixes the cost model for a core's execution of requests.
type ExecConfig struct {
	// Clock converts the timer profile's cycle costs to time.
	Clock params.Clock
	// Timer is the timer/interrupt cost profile (§3.4.4).
	Timer params.TimerProfile
	// Slice is the preemption quantum; zero disables self-preemption.
	Slice time.Duration
	// SelfArm selects the Shinjuku-Offload style: the worker arms its own
	// APIC timer per segment and preempts itself. When false, preemption
	// only happens through Interrupt (vanilla Shinjuku style).
	SelfArm bool
	// CtxSave and CtxResume are the context save/restore costs charged on
	// preemption and on resuming a previously preempted request.
	CtxSave, CtxResume time.Duration
	// CtxMigrate is the additional resume cost when the request last ran
	// on a different core (cold caches for its context).
	CtxMigrate time.Duration
	// Stretch, when set, converts the core's busy time into the wall
	// duration it takes under a fault timeline (worker-stall windows
	// freeze the core). The reported work amounts (slice lengths,
	// Remaining) stay in work units; only the wall clock dilates. Nil —
	// the only state healthy systems ever see — changes nothing.
	// Incompatible with Interrupt-driven preemption, which reconstructs
	// work done from wall time.
	Stretch func(sim.Time, time.Duration) time.Duration
}

// Exec is the execution engine of one worker core. It runs one request at a
// time; the surrounding system supplies queuing and communication.
type Exec struct {
	eng *sim.Engine
	cfg ExecConfig
	id  int

	busy      bool
	cur       *task.Request
	workStart sim.Time
	doneTimer sim.Timer // armed in place; a core has at most one pending expiry

	onComplete func(*task.Request)
	onPreempt  func(*task.Request)

	// Track accounts busy time for the worker-idle statistics behind the
	// paper's §4 "110% more time waiting for work" measurement.
	Track stats.BusyTracker

	completions uint64
	preemptions uint64
	migrations  uint64
}

// NewExec creates a core execution engine. onComplete fires when a request
// finishes; onPreempt fires when a slice expires or Interrupt lands, after
// the interrupt-receipt and context-save costs, with Remaining updated.
func NewExec(eng *sim.Engine, id int, cfg ExecConfig, onComplete, onPreempt func(*task.Request)) *Exec {
	if onComplete == nil {
		panic("cores: onComplete is required")
	}
	if (cfg.SelfArm && cfg.Slice > 0) && onPreempt == nil {
		panic("cores: onPreempt is required when self-preemption is enabled")
	}
	return &Exec{eng: eng, cfg: cfg, id: id, onComplete: onComplete, onPreempt: onPreempt}
}

// ID returns the worker core's identifier.
func (e *Exec) ID() int { return e.id }

// Busy reports whether a request is currently being executed (including
// preemption/IRQ overhead windows).
func (e *Exec) Busy() bool { return e.busy }

// Current returns the request in execution, or nil.
func (e *Exec) Current() *task.Request { return e.cur }

// Completions returns the number of requests completed on this core.
func (e *Exec) Completions() uint64 { return e.completions }

// Preemptions returns the number of preemptions taken on this core.
func (e *Exec) Preemptions() uint64 { return e.preemptions }

// Migrations returns how many resumed requests arrived from another core
// (each paid CtxMigrate).
func (e *Exec) Migrations() uint64 { return e.migrations }

// Start begins executing req. It panics if the core is already busy —
// callers must serialize through their own queues.
//
//mindgap:noalloc
func (e *Exec) Start(req *task.Request) { e.start(req, true) }

// start begins executing req. With allowSlice false no slice timer is
// armed (and no arm cost charged), so the request holds the core until it
// finishes: the degraded hash-steering path runs requests this way —
// RSS-style steering has no preemption (§2.1).
//
//mindgap:noalloc
func (e *Exec) start(req *task.Request, allowSlice bool) {
	if e.busy {
		panic("cores: Start on busy core")
	}
	if req.Done() {
		panic("cores: Start on completed request")
	}
	e.busy = true
	e.cur = req
	e.Track.SetBusy(e.eng.Now(), true)
	req.Assignments++

	var overhead time.Duration
	if req.Preemptions > 0 {
		overhead += e.cfg.CtxResume
		if req.LastWorker != task.NoWorker && req.LastWorker != e.id {
			// The context lives in the previous core's caches.
			overhead += e.cfg.CtxMigrate
			e.migrations++
		}
	}
	req.LastWorker = e.id
	selfSlice := allowSlice && e.cfg.SelfArm && e.cfg.Slice > 0
	if selfSlice {
		overhead += e.cfg.Clock.CyclesToDuration(e.cfg.Timer.ArmCycles)
	}
	e.workStart = e.eng.Now().Add(overhead)

	if selfSlice && req.Remaining > e.cfg.Slice {
		// The slice will expire: schedule the self-preemption.
		fireAt := e.stretched(overhead + e.cfg.Slice)
		e.eng.ArmAfterE(&e.doneTimer, fireAt, execSliceExpired, e, nil, 0)
		return
	}
	e.eng.ArmAfterE(&e.doneTimer, e.stretched(overhead+req.Remaining), execCompleted, e, nil, 0)
}

// execSliceExpired fires when the self-armed preemption timer expires.
//
//mindgap:noalloc
func execSliceExpired(recv, _ any, _ uint64) {
	e := recv.(*Exec)
	e.slice(e.cfg.Slice)
}

// execCompleted fires when the current request's remaining work elapses.
//
//mindgap:noalloc
func execCompleted(recv, _ any, _ uint64) {
	recv.(*Exec).complete()
}

// execPreempted fires after the interrupt-receipt and context-save
// overhead of a preemption; obj is the preempted request.
//
//mindgap:noalloc
func execPreempted(recv, obj any, _ uint64) {
	e := recv.(*Exec)
	e.finishRun()
	e.onPreempt(obj.(*task.Request))
}

// stretched dilates a busy-time amount through the fault timeline.
//
//mindgap:noalloc
func (e *Exec) stretched(d time.Duration) time.Duration {
	if e.cfg.Stretch == nil {
		return d
	}
	return e.cfg.Stretch(e.eng.Now(), d)
}

// complete finishes the current request.
//
//mindgap:noalloc
func (e *Exec) complete() {
	req := e.cur
	req.Remaining = 0
	e.finishRun()
	e.completions++
	e.onComplete(req)
}

// slice handles expiry of the self-armed timer: charge the interrupt
// receipt and context save, then hand the request back.
//
//mindgap:noalloc
func (e *Exec) slice(ran time.Duration) {
	req := e.cur
	req.Remaining -= ran
	if req.Remaining < 0 {
		req.Remaining = 0
	}
	req.Preemptions++
	e.preemptions++
	overhead := e.cfg.Clock.CyclesToDuration(e.cfg.Timer.FireCycles) + e.cfg.CtxSave
	e.eng.AfterE(e.stretched(overhead), execPreempted, e, req, 0)
}

// Interrupt posts an external preemption interrupt to the core (vanilla
// Shinjuku's dispatcher-driven preemption). It reports false if the core
// already finished the request — the benign race of §3.4.4 where an
// interrupt arrives after completion. The preempted request is reported
// through onPreempt after interrupt-receipt and context-save costs.
//
//mindgap:noalloc
func (e *Exec) Interrupt() bool {
	if !e.busy || e.cur == nil {
		return false
	}
	if e.onPreempt == nil {
		panic("cores: Interrupt without an onPreempt handler")
	}
	if e.cfg.Stretch != nil {
		// ran-so-far below divides wall time by an assumed healthy rate;
		// under a stall timeline that arithmetic is wrong, and no modelled
		// system combines posted interrupts with worker stalls.
		panic("cores: Interrupt is not supported under a fault stretch")
	}
	now := e.eng.Now()
	if now < e.workStart {
		// Interrupt landed during pickup overhead: no work done yet.
		e.workStart = now
	}
	ran := now.Sub(e.workStart)
	if ran >= e.cur.Remaining {
		// Completion event will fire this instant anyway.
		return false
	}
	e.doneTimer.Stop()
	e.slice(ran)
	return true
}

//mindgap:noalloc
func (e *Exec) finishRun() {
	e.busy = false
	e.cur = nil
	e.doneTimer = sim.Timer{}
	e.Track.SetBusy(e.eng.Now(), false)
}
