package experiment

import (
	"fmt"
	"io"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
)

// This file declares the attribution table: the same scenario measured under
// informed offload and its baselines, with a latency-attribution
// collector attached, so the end-to-end percentiles every other table
// reports can be split into where the time actually went — and every
// dispatch decision graded against the ground-truth backlog the
// scheduler could not see.

// attributionTailK is the slowest-K reservoir size used by the table:
// enough requests for the tail share to be stable at quick quality
// without retaining full timelines.
const attributionTailK = 32

// PhaseRow is one phase of a system's latency waterfall.
type PhaseRow struct {
	// Phase is the phase name (ingress, nic-queue, host-queue, ...).
	Phase string
	// Mean, P50 and P99 summarize the per-request time spent in the phase.
	Mean, P50, P99 time.Duration
	// MeanShare is the phase's fraction of total mean latency; TailShare
	// is its fraction within the slowest-K requests — where the p99 lives.
	MeanShare, TailShare float64
}

// AttributionRow is one measured system of the attribution table: the
// usual latency point plus its phase waterfall and decision audit.
type AttributionRow struct {
	// Result is the conventional measured point.
	Result Result
	// Phases is the latency waterfall, in phase order.
	Phases []PhaseRow
	// Audit grades every dispatch decision against ground truth.
	Audit attr.AuditSummary
}

// HostQueueTailShare returns the host-queue phase's share of tail
// latency — the single number the paper's thesis predicts collapses
// under informed offload (requests wait at the NIC, where the scheduler
// can see them, instead of behind a blind core's backlog).
func (r AttributionRow) HostQueueTailShare() float64 {
	for _, p := range r.Phases {
		if p.Phase == attr.PhaseHostQueue.String() {
			return p.TailShare
		}
	}
	return 0
}

// Attributed is the attribution row kind: the conventional point measured
// with a latency-attribution collector attached. The collector is created
// inside the point run — never shared across concurrent sweep points — so
// attribution tables are byte-identical at any runner parallelism.
var Attributed = Kind[AttributionRow]{
	run: func(cfg PointConfig, sp scenario.Spec, x float64) AttributionRow {
		col := attr.New(attr.Config{TailK: attributionTailK})
		cfg.Factory = observed(sp, scenario.Options{Attr: col})
		res := Plain.run(cfg, sp, x)
		row := AttributionRow{Result: res, Audit: col.AuditSummary()}
		for _, ps := range col.PhaseStats() {
			row.Phases = append(row.Phases, PhaseRow{
				Phase:     ps.Phase.String(),
				Mean:      ps.Mean,
				P50:       ps.P50,
				P99:       ps.P99,
				MeanShare: ps.MeanShare,
				TailShare: ps.TailShare,
			})
		}
		return row
	},
}

// printAttribution prints X13: per system, its point, the phases it
// enters and its decision audit.
func printAttribution(w io.Writer, _ scenario.Preset, res []runner.SeriesResult[AttributionRow]) {
	for _, sr := range res {
		for _, r := range sr.Results {
			fmt.Fprintf(w, "%s — p50=%v p99=%v achieved=%.0f rps\n",
				sr.Label, r.Result.P50, r.Result.P99, r.Result.AchievedRPS)
			fmt.Fprintf(w, "  %-12s %12s %12s %12s %10s %10s\n",
				"phase", "mean", "p50", "p99", "mean-share", "tail-share")
			for _, ph := range r.Phases {
				if ph.Mean == 0 && ph.P99 == 0 {
					continue // phase the system never enters (e.g. fabric on rss)
				}
				fmt.Fprintf(w, "  %-12s %12v %12v %12v %9.1f%% %9.1f%%\n",
					ph.Phase, ph.Mean, ph.P50, ph.P99, ph.MeanShare*100, ph.TailShare*100)
			}
			a := r.Audit
			fmt.Fprintf(w, "  decisions=%d informed=%d mis-dispatch=%.1f%% staleness(mean/p99)=%v/%v est-err=%v excess(mean/p99)=%v/%v\n\n",
				a.Decisions, a.Informed, a.MisRate*100,
				a.MeanStaleness, a.P99Staleness, a.MeanEstimateError,
				a.MeanExcess, a.P99Excess)
		}
	}
}
