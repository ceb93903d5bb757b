package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/faults"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/scenarios"
)

// This file renders the fault-recovery timeline: one faulted run chopped
// into phases around the injected NIC crash windows, showing goodput and
// tail latency degrading while the ARM cores are down (degraded
// hash-steering keeps a reduced service running, §2.1) and recovering
// once the crash window closes.

// FaultPhase is one row of the recovery table: completions observed in
// [Start, End) of a faulted run.
type FaultPhase struct {
	// Phase names the interval: healthy, crash, recovery, or recovered
	// (crash presets), or faulted for presets without crash windows.
	Phase      string
	Start, End time.Duration
	// Completed counts requests whose response landed inside the phase;
	// GoodputRPS is that count over the phase length.
	Completed  int64
	GoodputRPS float64
	// P50/P99/Max summarize the latency of those completions.
	P50, P99, Max time.Duration
}

// FaultTimelineResult is the rendered recovery table for one preset's
// faulted series, with the fault engine's own accounting alongside.
type FaultTimelineResult struct {
	Preset, Label string
	OfferedRPS    float64
	Phases        []FaultPhase
	// Retries/TimeoutDrops/Degraded come from the offload system's
	// timeout-retry machinery; LossDrops/DelayHits from the fabric fault
	// hook; RecorderDrops is every drop the stats recorder saw (ring
	// overflows, frame losses, and retry-budget abandonments combined).
	Retries, TimeoutDrops, Degraded uint64
	LossDrops, DelayHits            uint64
	RecorderDrops                   int64
}

// faultTimeline is the X12 row kind: one faulted run measured from a cold
// start to a fixed horizon, its completions bucketed into phases around
// the first crash window of the spec's compiled fault schedule — lead-in,
// the window, an equal-length recovery interval, then a recovered tail as
// long as the lead-in. A schedule without crash windows gets one
// whole-run "faulted" phase sized to the quality's measurement count.
var faultTimeline = Kind[FaultTimelineResult]{
	run: func(cfg PointConfig, sp scenario.Spec, x float64) FaultTimelineResult {
		res := FaultTimelineResult{OfferedRPS: x}
		horizon := time.Duration(float64(cfg.Measure) / x * float64(time.Second))
		res.Phases = []FaultPhase{{Phase: "faulted", End: horizon}}
		if ws := faults.New(*sp.Faults, sp.Seed).CrashWindows(); len(ws) > 0 {
			start, end := ws[0].Start.D(), ws[0].End.D()
			crashLen := end - start
			horizon = end + crashLen + start
			res.Phases = []FaultPhase{
				{Phase: "healthy", End: start},
				{Phase: "crash", Start: start, End: end},
				{Phase: "recovery", Start: end, End: end + crashLen},
				{Phase: "recovered", Start: end + crashLen, End: horizon},
			}
		}
		// The horizon, not a completion count, ends the run.
		cfg.Warmup, cfg.Measure, cfg.MaxSimTime = 0, math.MaxInt, horizon
		hist := make([]stats.Histogram, len(res.Phases))
		r, sys := drive(cfg, func(req *task.Request, latency time.Duration) {
			at := req.Arrival.Add(latency).Duration()
			for i, ph := range res.Phases {
				if at >= ph.Start && at < ph.End {
					hist[i].Record(latency)
				}
			}
		})
		for i := range res.Phases {
			ph, h := &res.Phases[i], &hist[i]
			ph.Completed = h.Count()
			ph.GoodputRPS = float64(h.Count()) / (ph.End - ph.Start).Seconds()
			ph.P50, ph.P99, ph.Max = h.P50(), h.P99(), h.Max()
		}
		// Only the offload system reads faults, so a faulted spec built one.
		off := sys.(*core.Offload)
		res.Retries, res.TimeoutDrops, res.Degraded = off.Retries(), off.TimeoutDrops(), off.DegradedSteered()
		res.LossDrops, res.DelayHits = off.FaultSchedule().LossDrops(), off.FaultSchedule().DelayHits()
		res.RecorderDrops = r.Dropped
		return res
	},
}

// FaultTimeline measures the recovery table of the named preset on rn:
// its first faulted series, pinned to the top of its load grid — where
// degraded hash steering visibly hurts the tail, which is the point of
// the table — as one faultTimeline row. Same preset, same bytes out, at
// any parallelism.
func FaultTimeline(ctx context.Context, rn *runner.Runner, presetID string, q Quality) (FaultTimelineResult, error) {
	p, err := scenarios.Load(presetID)
	if err != nil {
		return FaultTimelineResult{}, err
	}
	for i := range p.Series {
		sp := p.SpecFor(i)
		if sp.Faults == nil {
			continue
		}
		loads, err := SpecLoads(sp)
		if err != nil {
			return FaultTimelineResult{}, err
		}
		if len(loads) == 0 {
			return FaultTimelineResult{}, fmt.Errorf("experiment: preset %q declares no load", presetID)
		}
		sp.Load = &scenario.LoadSpec{RPS: loads[len(loads)-1]}
		p.Series = []scenario.SeriesSpec{{Label: p.Series[i].Label, Spec: sp}}
		res, err := Run(ctx, rn, p, q, faultTimeline)
		if rows := Rows(res); len(rows) > 0 {
			rows[0].Preset, rows[0].Label = presetID, res[0].Label
			return rows[0], err
		}
		return FaultTimelineResult{}, err
	}
	return FaultTimelineResult{}, fmt.Errorf("experiment: preset %q has no faulted series", presetID)
}

// FaultPresetIDs lists the checked-in fault presets the faults table
// renders, in output order.
func FaultPresetIDs() []string {
	return []string{"figure-faults-niccrash", "figure-faults-lossyfabric"}
}

// faultsTable measures and prints X12, one recovery table per fault
// preset.
func faultsTable(ctx context.Context, rn *runner.Runner, q Quality, w io.Writer, _ Format) error {
	fmt.Fprintln(w, "== X12: fault recovery timeline (goodput and tail per phase of a faulted run)")
	for _, id := range FaultPresetIDs() {
		r, err := FaultTimeline(ctx, rn, id, q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s — %s @ %.0f rps\n", r.Preset, r.Label, r.OfferedRPS)
		fmt.Fprintf(w, "  %-10s %16s %10s %12s %12s %12s %12s\n",
			"phase", "window", "completed", "goodput", "p50", "p99", "max")
		for _, ph := range r.Phases {
			fmt.Fprintf(w, "  %-10s %7v–%-8v %10d %12.0f %12v %12v %12v\n",
				ph.Phase, ph.Start, ph.End, ph.Completed, ph.GoodputRPS, ph.P50, ph.P99, ph.Max)
		}
		fmt.Fprintf(w, "  retries=%d timeout_drops=%d degraded=%d loss_drops=%d delay_hits=%d drops=%d\n\n",
			r.Retries, r.TimeoutDrops, r.Degraded, r.LossDrops, r.DelayHits, r.RecorderDrops)
	}
	return nil
}
