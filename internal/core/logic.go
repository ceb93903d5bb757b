// Package core implements the paper's primary contribution: informed,
// centralized, preemptive request scheduling at the NIC.
//
// The package has two halves:
//
//   - Logic is the pure scheduling state machine — the centralized FIFO task
//     queue (optionally split into strict-priority latency classes, §2.2),
//     per-worker outstanding-request credits (the queuing optimization of
//     §3.4.5), worker selection, and the host load-feedback interface
//     (§3.1/§3.2 requirement 2). It has no dependency on the
//     simulator, so the live UDP implementation (internal/live) runs the
//     exact same scheduler the simulation evaluates.
//
//   - Offload assembles Logic onto the simulated Stingray SmartNIC: the
//     networking subsystem and the three-core dispatcher pipeline (§3.4.1)
//     on ARM stage servers, packet-based dispatcher↔worker communication
//     (§3.4.2), self-armed APIC-timer preemption on workers (§3.4.4), and
//     request stashing in worker RX rings (§3.4.5).
package core

import (
	"fmt"
	"time"

	"mindgap/internal/queue"
	"mindgap/internal/sim"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
)

// Policy selects how the scheduler picks a worker for the request at the
// head of the central queue.
type Policy int

const (
	// LeastOutstanding picks the worker with the fewest outstanding
	// requests (ties broken round-robin). With per-worker credit k=1 this
	// degenerates to Shinjuku's "assign to an idle worker".
	LeastOutstanding Policy = iota
	// RoundRobin cycles through workers with available credit regardless of
	// how loaded they are; it isolates the value of informed selection.
	RoundRobin
	// InformedLeastLoaded picks the worker with the smallest reported
	// instantaneous load (host→NIC feedback, §3.1), falling back to
	// outstanding counts for workers that have not reported.
	InformedLeastLoaded
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LeastOutstanding:
		return "least-outstanding"
	case RoundRobin:
		return "round-robin"
	case InformedLeastLoaded:
		return "informed-least-loaded"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Assignment is one scheduling decision: send req to worker.
type Assignment struct {
	Worker int
	Req    *task.Request
}

// Logic is the centralized scheduler state machine. It is deliberately
// synchronous and allocation-light: each input event returns the
// assignments it triggers, and the caller provides the transport (ARM
// stages + packets in simulation, UDP sockets in live mode).
//
// Invariants (checked by tests):
//   - 0 <= outstanding[w] <= k for every worker.
//   - A request is either in the central queue or covered by exactly one
//     credit; it is never both, never neither, until completed.
//   - The central queue drains in FIFO order within a class, and no class
//     is served while a higher one holds a request.
type Logic struct {
	k      int
	policy Policy

	outstanding []int
	load        []int64
	hasLoad     []bool
	loadAt      []sim.Time
	rrNext      int
	affinity    bool

	// classes is the central queue, one FIFO per strict-priority latency
	// class, highest first; classOf maps a request to its class. The
	// default is the paper's single queue (§3.4.1): one class, nil classOf.
	classes []queue.FIFO[*task.Request]
	classOf func(*task.Request) int

	// Decision counters, read by the telemetry gauges. scanSteps is the
	// cumulative number of per-worker probes the selection policy made —
	// the queue-scan cost that grows with the worker count and bounds an
	// ARM dispatcher core's decision rate (§5.1).
	assigned    uint64
	completed   uint64
	requeued    uint64
	scanSteps   uint64
	loadReports uint64
}

// NewLogic creates scheduler state for the given worker count and
// per-worker outstanding-credit limit k (the queuing optimization; k=1
// means a worker never has a request stashed while executing another).
func NewLogic(workers, k int, policy Policy) *Logic {
	if workers <= 0 {
		panic("core: need at least one worker")
	}
	if k <= 0 {
		panic("core: outstanding credit limit must be positive")
	}
	return &Logic{
		k:           k,
		policy:      policy,
		outstanding: make([]int, workers),
		load:        make([]int64, workers),
		hasLoad:     make([]bool, workers),
		loadAt:      make([]sim.Time, workers),
		classes:     make([]queue.FIFO[*task.Request], 1),
	}
}

// EnableAffinity makes the scheduler prefer resuming a preempted request
// on the worker that last ran it when that worker has spare credit — §3.1's
// "good scheduling affinity": the request's context is still warm in that
// core's caches. Fresh requests are unaffected.
func (l *Logic) EnableAffinity() { l.affinity = true }

// SetClasses splits the central queue into n strict-priority classes —
// §2.2's "multiple co-located applications from different latency
// classes" sharing one server. classOf assigns each request a class,
// clamped into [0, n); class 0 is served first, so a latency-critical
// class never waits behind best-effort work in the central queue
// (preemption still protects requests from long ones within a class).
// Credit accounting is untouched: only queue selection differs. Call it
// before the first enqueue.
func (l *Logic) SetClasses(n int, classOf func(*task.Request) int) {
	if n <= 0 {
		panic("core: need at least one priority class")
	}
	l.classes = make([]queue.FIFO[*task.Request], n)
	if classOf != nil {
		l.classOf = func(r *task.Request) int { return min(max(classOf(r), 0), n-1) }
	}
}

// Workers returns the number of workers.
func (l *Logic) Workers() int { return len(l.outstanding) }

// CreditLimit returns k, the per-worker outstanding-request limit.
func (l *Logic) CreditLimit() int { return l.k }

// QueueLen returns the central queue depth, summed across classes.
//
//mindgap:noalloc
func (l *Logic) QueueLen() int {
	total := 0
	for c := range l.classes {
		total += l.classes[c].Len()
	}
	return total
}

// Outstanding returns worker w's outstanding request count.
func (l *Logic) Outstanding(w int) int { return l.outstanding[w] }

// EnqueueTo admits a new request at the tail of the central queue and
// appends any assignment it enables (at most one) to out. A hot caller
// reuses one scratch buffer across events; nil allocates a fresh one.
//
//mindgap:noalloc
func (l *Logic) EnqueueTo(out []Assignment, now sim.Time, req *task.Request) []Assignment {
	req.Enqueued = now
	l.queueFor(req).Push(req)
	return l.drain(out)
}

// CompleteTo processes a FINISH notification from worker w: the credit is
// released, possibly dispatching the queue head (at most one assignment,
// appended to out).
//
//mindgap:noalloc
func (l *Logic) CompleteTo(out []Assignment, w int) []Assignment {
	l.release(w)
	l.completed++
	return l.drain(out)
}

// PreemptedTo processes a PREEMPTED notification: worker w's credit is
// released and req re-enters the tail of its class queue (§3.4.1 — "once
// the request reaches the front of the queue again, it can be assigned to
// any worker"). Assignments are appended to out.
//
//mindgap:noalloc
func (l *Logic) PreemptedTo(out []Assignment, now sim.Time, w int, req *task.Request) []Assignment {
	l.release(w)
	l.requeued++
	req.Enqueued = now
	l.queueFor(req).Push(req)
	return l.drain(out)
}

// ReportLoadAt records host load feedback for worker w — the instantaneous
// load information an informed NIC folds into its decisions (§3.1) — with
// its receipt instant, enabling staleness accounting: by the time a report
// influences a decision it is already one NIC↔host hop old, and the gap
// only grows between reports. The unit is caller-defined (the simulation
// reports remaining work in ns).
//
//mindgap:noalloc
func (l *Logic) ReportLoadAt(now sim.Time, w int, load int64) {
	l.load[w] = load
	l.hasLoad[w] = true
	l.loadAt[w] = now
	l.loadReports++
}

// LoadAge returns how stale worker w's last load report is at instant
// now; ok is false if w never reported (a report stamped with instant 0
// reads as never timed).
//
//mindgap:noalloc
func (l *Logic) LoadAge(now sim.Time, w int) (age time.Duration, ok bool) {
	if !l.hasLoad[w] || l.loadAt[w] == 0 {
		return 0, false
	}
	return now.Sub(l.loadAt[w]), true
}

// EstimateFor returns the backlog estimate the scheduler would act on for
// worker w at instant now, plus its staleness. ok is false when the
// scheduler holds no numeric belief about w — an uninformed policy, or an
// informed one before w's first load report — in which case a decision
// audit should classify the dispatch as uninformed.
//
//mindgap:noalloc
func (l *Logic) EstimateFor(now sim.Time, w int) (est int64, age time.Duration, ok bool) {
	if l.policy != InformedLeastLoaded || !l.hasLoad[w] {
		return 0, 0, false
	}
	age, _ = l.LoadAge(now, w)
	return l.load[w], age, true
}

// OldestLoadAge returns the worst staleness across workers that have
// reported — the scheduler's view of its own information gap. It returns
// 0 when no worker has reported.
func (l *Logic) OldestLoadAge(now sim.Time) time.Duration {
	var worst time.Duration
	for w := range l.loadAt {
		if age, ok := l.LoadAge(now, w); ok && age > worst {
			worst = age
		}
	}
	return worst
}

// Completed returns the number of FINISH notifications processed.
func (l *Logic) Completed() uint64 { return l.completed }

// RegisterTelemetry exposes the scheduler's decision counters and queue
// probes on reg under the given component label, plus one depth gauge per
// class when the queue has more than one. now supplies the current instant
// for the load-staleness gauge (nil disables it).
func (l *Logic) RegisterTelemetry(reg *telemetry.Registry, component string, now func() sim.Time) {
	reg.GaugeFunc(component, "queue_depth", func() float64 { return float64(l.QueueLen()) })
	reg.GaugeFunc(component, "queue_high_water", func() float64 {
		h := 0
		for c := range l.classes {
			h += l.classes[c].HighWater()
		}
		return float64(h)
	})
	if len(l.classes) > 1 {
		for c := range l.classes {
			q := &l.classes[c]
			reg.GaugeFunc(component, fmt.Sprintf("queue_depth_class%d", c), func() float64 { return float64(q.Len()) })
		}
	}
	reg.GaugeFunc(component, "assigned", func() float64 { return float64(l.assigned) })
	reg.GaugeFunc(component, "completed", func() float64 { return float64(l.completed) })
	reg.GaugeFunc(component, "requeued", func() float64 { return float64(l.requeued) })
	reg.GaugeFunc(component, "scan_steps", func() float64 { return float64(l.scanSteps) })
	reg.GaugeFunc(component, "load_reports", func() float64 { return float64(l.loadReports) })
	if now != nil {
		reg.GaugeFunc(component, "load_staleness_ns", func() float64 {
			return float64(l.OldestLoadAge(now()))
		})
	}
}

//mindgap:noalloc
func (l *Logic) release(w int) {
	if l.outstanding[w] <= 0 {
		panic(fmt.Sprintf("core: credit underflow on worker %d", w))
	}
	l.outstanding[w]--
}

// queueFor returns the class queue req waits in. SetClasses already
// clamped classOf, which keeps this small enough to inline on the
// per-request enqueue path.
//
//mindgap:noalloc
func (l *Logic) queueFor(req *task.Request) *queue.FIFO[*task.Request] {
	c := 0
	if l.classOf != nil {
		c = l.classOf(req)
	}
	return &l.classes[c]
}

// drain dispatches from the head of the highest non-empty class while a
// worker has spare credit.
//
//mindgap:noalloc
func (l *Logic) drain(out []Assignment) []Assignment {
	for c := range l.classes {
		q := &l.classes[c]
		for q.Len() > 0 {
			head, _ := q.Peek()
			w := -1
			if l.affinity && head.Preemptions > 0 &&
				head.LastWorker >= 0 && head.LastWorker < len(l.outstanding) &&
				l.outstanding[head.LastWorker] < l.k {
				w = head.LastWorker
			} else {
				w = l.pick()
			}
			if w < 0 {
				return out
			}
			req, _ := q.Pop()
			l.outstanding[w]++
			l.assigned++
			out = append(out, Assignment{Worker: w, Req: req})
		}
	}
	return out
}

// pick returns the chosen worker, or -1 if no worker has spare credit.
//
//mindgap:noalloc
func (l *Logic) pick() int {
	n := len(l.outstanding)
	switch l.policy {
	case RoundRobin:
		for i := 0; i < n; i++ {
			l.scanSteps++
			w := (l.rrNext + i) % n
			if l.outstanding[w] < l.k {
				l.rrNext = (w + 1) % n
				return w
			}
		}
		return -1
	case InformedLeastLoaded:
		best, bestLoad := -1, int64(0)
		for i := 0; i < n; i++ {
			l.scanSteps++
			w := (l.rrNext + i) % n
			if l.outstanding[w] >= l.k {
				continue
			}
			ld := l.load[w]
			if !l.hasLoad[w] {
				// No feedback yet: approximate load by outstanding count.
				ld = int64(l.outstanding[w]) * 1_000_000
			}
			if best < 0 || ld < bestLoad {
				best, bestLoad = w, ld
			}
		}
		if best >= 0 {
			l.rrNext = (best + 1) % n
		}
		return best
	default: // LeastOutstanding
		best, bestOut := -1, 0
		for i := 0; i < n; i++ {
			l.scanSteps++
			w := (l.rrNext + i) % n
			if l.outstanding[w] >= l.k {
				continue
			}
			if best < 0 || l.outstanding[w] < bestOut {
				best, bestOut = w, l.outstanding[w]
				if bestOut == 0 {
					break // cannot do better than an idle worker
				}
			}
		}
		if best >= 0 {
			l.rrNext = (best + 1) % n
		}
		return best
	}
}
