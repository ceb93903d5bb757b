// Package probe is the lifecycle spine: the one observer a system model
// holds. A model reports each instant of a request's life — arrive,
// ingress, enqueue, dispatch, host-arrive, start, preempt, complete,
// respond, or drop with a reason — through one call, and the probe feeds
// every consumer from inside it: the measurement Recorder (drops,
// preemptions), the request trace, the attribution collector, and the
// per-reason drop counts that model accessors and telemetry read. The
// consumers therefore cannot disagree about what happened.
//
// A probe only observes: no method schedules an engine event, so a run
// with consumers attached executes the same event sequence as a bare one.
// Methods take request IDs and values, never a pooled *task.Request.
package probe

import (
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/trace"
)

// Probe fans one lifecycle stream out to its consumers. Any consumer may
// be nil, and every lifecycle method is a no-op on a nil *Probe.
type Probe struct {
	Rec   *stats.Recorder
	Trace *trace.Buffer
	Attr  *attr.Collector

	drops               [trace.DropReasonCount]uint64
	arrivals, responses uint64
}

// mark traces one lifecycle step and returns the collector the caller
// forwards the same instant to: nil — itself a no-op receiver — when the
// probe is nil or carries none.
//
//mindgap:noalloc
func (p *Probe) mark(at sim.Time, kind trace.Kind, id uint64, worker int) *attr.Collector {
	if p == nil {
		return nil
	}
	if p.Trace != nil {
		p.Trace.Record(at, kind, id, worker)
	}
	return p.Attr
}

// Arrive opens a request's record at its client transmit instant; service
// is its nominal service time.
//
//mindgap:noalloc
func (p *Probe) Arrive(at sim.Time, id uint64, service time.Duration) {
	if p != nil {
		p.arrivals++
	}
	p.mark(at, trace.Arrive, id, -1).Arrive(at, id, service)
}

// Ingress marks arrival at the scheduler's networking subsystem.
//
//mindgap:noalloc
func (p *Probe) Ingress(at sim.Time, id uint64) {
	p.mark(at, trace.Ingress, id, -1).Ingress(at, id)
}

// Enqueue marks entry into a scheduler queue (central or per-core).
//
//mindgap:noalloc
func (p *Probe) Enqueue(at sim.Time, id uint64) {
	p.mark(at, trace.Enqueue, id, -1).Enqueue(at, id)
}

// Dispatch marks the scheduler assigning the request to worker.
//
//mindgap:noalloc
func (p *Probe) Dispatch(at sim.Time, id uint64, worker int) {
	p.mark(at, trace.Dispatch, id, worker).Dispatch(at, id)
}

// HostArrive marks the request landing at its worker (RX ring or stash):
// the fabric / host-queue boundary. It has no trace event of its own.
//
//mindgap:noalloc
func (p *Probe) HostArrive(at sim.Time, id uint64) {
	if p != nil {
		p.Attr.HostArrive(at, id)
	}
}

// Start marks execution beginning (or resuming) on worker.
//
//mindgap:noalloc
func (p *Probe) Start(at sim.Time, id uint64, worker int) {
	p.mark(at, trace.Start, id, worker).Start(at, id)
}

// Preempt marks a preemption taking the request off worker.
//
//mindgap:noalloc
func (p *Probe) Preempt(at sim.Time, id uint64, worker int) {
	if p != nil && p.Rec != nil {
		p.Rec.RecordPreemption()
	}
	p.mark(at, trace.Preempt, id, worker).Preempt(at, id)
}

// Complete marks the request finishing all of its work on worker.
//
//mindgap:noalloc
func (p *Probe) Complete(at sim.Time, id uint64, worker int) {
	p.mark(at, trace.Complete, id, worker).Complete(at, id)
}

// Respond closes the record: the response reached the client.
//
//mindgap:noalloc
func (p *Probe) Respond(at sim.Time, id uint64) {
	if p != nil {
		p.responses++
	}
	p.mark(at, trace.Respond, id, -1).Respond(at, id)
}

// Drop closes the record as lost for reason; worker is where it was lost
// (-1 before any assignment).
//
//mindgap:noalloc
func (p *Probe) Drop(at sim.Time, id uint64, worker int, reason trace.DropReason) {
	if p == nil {
		return
	}
	p.drops[reason]++
	if p.Rec != nil {
		p.Rec.RecordDrop()
	}
	if p.Trace != nil {
		p.Trace.Add(trace.Event{At: at, Kind: trace.Drop, ReqID: id, Worker: worker, Reason: reason})
	}
	p.Attr.Drop(at, id, reason)
}

// AuditTruth is the first half of the decision-audit hand-off: it returns
// a reusable length-n slice for the model to fill with every worker's
// ground-truth backlog, or nil when no collector is attached and the scan
// should be skipped.
//
//mindgap:noalloc
func (p *Probe) AuditTruth(n int) []int64 {
	if p == nil {
		return nil
	}
	return p.Attr.TruthScratch(n)
}

// Audit grades one dispatch decision against the truth it carries. Only
// reached with a slice AuditTruth handed out, so p is non-nil.
//
//mindgap:noalloc
func (p *Probe) Audit(d attr.Decision) { p.Attr.Audit(d) }

// Drops returns how many requests were dropped for reason, measurement
// window or not (the Recorder keeps the windowed total).
func (p *Probe) Drops(reason trace.DropReason) uint64 { return p.drops[reason] }

// Dropped returns the total across all reasons.
func (p *Probe) Dropped() uint64 {
	var n uint64
	for _, c := range p.drops {
		n += c
	}
	return n
}
