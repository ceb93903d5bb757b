package attr

import (
	"time"

	"mindgap/internal/sim"
	"mindgap/internal/stats"
)

// Decision is one dispatch decision presented to the audit: the worker
// the scheduler chose, the estimate it acted on, and the ground-truth
// backlog of every worker at that instant — state the real dispatcher
// could never read atomically, which is exactly why its view can be
// wrong.
type Decision struct {
	// At is the decision instant.
	At sim.Time
	// ReqID is the dispatched request.
	ReqID uint64
	// Chosen is the worker the scheduler selected.
	Chosen int
	// Informed is true when the scheduler acted on a numeric backlog
	// estimate (host→NIC load feedback). Hash steering and credit-only
	// policies are uninformed: they hold no ns-denominated belief.
	Informed bool
	// Estimate is the scheduler's belief about Chosen's backlog in ns
	// (meaningful only when Informed).
	Estimate int64
	// EstimateAge is the engine-time age of that belief — the signal
	// staleness the paper's information gap is made of (Informed only).
	EstimateAge time.Duration
	// Truth is the ground-truth resident backlog per worker in ns:
	// remaining work executing plus remaining work stashed in the
	// worker's ring/queue at this instant.
	Truth []int64
}

// auditState aggregates the decision stream.
type auditState struct {
	decisions uint64
	informed  uint64
	mis       uint64

	staleness stats.Histogram // estimate age, informed decisions only
	estErr    stats.Histogram // |truth[chosen] - estimate|, informed only
	excess    stats.Histogram // truth[chosen] - truth[best], mis-dispatches
	excessSum time.Duration

	truthScratch []int64
	samples      []AuditSample
}

// AuditSample is one retained decision for trace counter tracks.
type AuditSample struct {
	At            sim.Time
	Decisions     uint64
	MisDispatches uint64
	// Staleness is the decision's estimate age (0 for uninformed).
	Staleness time.Duration
	// Excess is the decision's excess backlog vs. the true best worker
	// (0 when the decision was optimal).
	Excess time.Duration
}

// TruthScratch returns a reusable length-n slice for ground-truth scans,
// so per-dispatch audits allocate nothing in steady state. A nil collector
// returns nil: there is no audit to scan for.
func (c *Collector) TruthScratch(n int) []int64 {
	if c == nil {
		return nil
	}
	if cap(c.audit.truthScratch) < n {
		c.audit.truthScratch = make([]int64, n)
	}
	return c.audit.truthScratch[:n]
}

// Audit records one dispatch decision against ground truth. A decision is
// a mis-dispatch when some other worker held strictly less resident
// backlog than the chosen one (ties broken toward the lowest index, the
// same deterministic order schedulers scan in); the excess is the backlog
// difference — the extra wait the request inherits from the scheduler's
// imperfect view.
func (c *Collector) Audit(d Decision) {
	if c == nil || len(d.Truth) == 0 || d.Chosen < 0 || d.Chosen >= len(d.Truth) {
		return
	}
	a := &c.audit
	best := 0
	for i, t := range d.Truth {
		if t < d.Truth[best] {
			best = i
		}
	}
	a.decisions++
	if d.Informed {
		a.informed++
		a.staleness.Record(d.EstimateAge)
		err := d.Truth[d.Chosen] - d.Estimate
		if err < 0 {
			err = -err
		}
		a.estErr.Record(time.Duration(err))
	}
	var excess time.Duration
	if d.Truth[d.Chosen] > d.Truth[best] {
		a.mis++
		excess = time.Duration(d.Truth[d.Chosen] - d.Truth[best])
		a.excessSum += excess
		a.excess.Record(excess)
	}
	if c.cfg.AuditSamples > 0 && len(a.samples) < c.cfg.AuditSamples {
		stale := time.Duration(0)
		if d.Informed {
			stale = d.EstimateAge
		}
		a.samples = append(a.samples, AuditSample{
			At: d.At, Decisions: a.decisions, MisDispatches: a.mis,
			Staleness: stale, Excess: excess,
		})
	}
}

// AuditSummary aggregates the decision stream into the information-gap
// metrics: mis-dispatch rate, signal staleness, and excess wait per
// mis-dispatch.
type AuditSummary struct {
	// Decisions is the number of audited dispatches; Informed of those
	// acted on a numeric load estimate.
	Decisions, Informed uint64
	// MisDispatches counts dispatches not sent to the true shortest
	// queue; MisRate is their fraction of all decisions.
	MisDispatches uint64
	MisRate       float64
	// MeanStaleness and P99Staleness summarize the estimate age at
	// decision time (informed decisions only).
	MeanStaleness, P99Staleness time.Duration
	// MeanEstimateError is the mean |truth - estimate| at decision time
	// (informed only) — how wrong the belief was, not just how old.
	MeanEstimateError time.Duration
	// MeanExcess and P99Excess summarize the backlog excess per
	// mis-dispatch; TotalExcess is their sum across the run.
	MeanExcess, P99Excess time.Duration
	TotalExcess           time.Duration
}

// AuditSummary returns the aggregated decision-audit metrics.
func (c *Collector) AuditSummary() AuditSummary {
	if c == nil {
		return AuditSummary{}
	}
	a := &c.audit
	s := AuditSummary{
		Decisions:         a.decisions,
		Informed:          a.informed,
		MisDispatches:     a.mis,
		MeanStaleness:     a.staleness.Mean(),
		P99Staleness:      a.staleness.P99(),
		MeanEstimateError: a.estErr.Mean(),
		MeanExcess:        a.excess.Mean(),
		P99Excess:         a.excess.P99(),
		TotalExcess:       a.excessSum,
	}
	if a.decisions > 0 {
		s.MisRate = float64(a.mis) / float64(a.decisions)
	}
	return s
}

// AuditSamples returns the retained per-decision samples (AuditSamples
// config), in decision order.
func (c *Collector) AuditSamples() []AuditSample {
	if c == nil {
		return nil
	}
	return c.audit.samples
}
