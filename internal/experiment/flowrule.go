package experiment

import (
	"fmt"
	"io"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/systems/flowrule"
)

// This file declares the X14 flow-rule detail rows: the fast-path /
// slow-path SmartNIC steering system swept across concurrent-flow
// populations (the figure-flowrule preset's fsweep axis), reading the
// rule-table counters — fast-path hit rate, insertion-pipeline
// pressure, eviction churn — behind each measured point. The X14 figure
// and its detail table are both reductions of these rows: one run, one
// set of cache keys.

// FlowRuleRow is one measured point of the flow-rule detail table: the
// conventional latency point plus the rule-table counters that explain
// it.
type FlowRuleRow struct {
	// Flows is the concurrent-flow population of the point.
	Flows int
	// Result is the conventional measured point.
	Result Result
	// FastPackets / SlowPackets / DropPackets split classified packets
	// by steering outcome.
	FastPackets, SlowPackets, DropPackets float64
	// FastHitRate is FastPackets over all classified packets.
	FastHitRate float64
	// Insertions counts completed rule installs; LRUEvictions and
	// IdleEvictions count rule-table departures by cause;
	// OffloadRefused counts insert attempts dropped because the bounded
	// insertion pipeline was full.
	Insertions, LRUEvictions, IdleEvictions, OffloadRefused float64
	// Resident is the rule-table occupancy at the end of the run and
	// Threshold the (possibly adapted) offload threshold in packets.
	Resident, Threshold float64
}

// FlowRuleDetail is the X14 detail row kind: the conventional point of
// a flow sweep plus the finished system's rule-table counters.
var FlowRuleDetail = Kind[FlowRuleRow]{
	run: func(cfg PointConfig, _ scenario.Spec, x float64) FlowRuleRow {
		r, sys := drive(cfg, nil)
		r.Point.OfferedRPS = x
		// Only the flowrule system takes a flow workload, so a flow-sweep
		// spec built one.
		fr := sys.(*flowrule.FlowRule)
		row := FlowRuleRow{
			Flows:          int(x),
			Result:         r,
			FastPackets:    float64(fr.FastPackets()),
			SlowPackets:    float64(fr.SlowPackets()),
			DropPackets:    float64(fr.DropPackets()),
			Insertions:     float64(fr.Insertions()),
			LRUEvictions:   float64(fr.LRUEvictions()),
			IdleEvictions:  float64(fr.IdleEvictions()),
			OffloadRefused: float64(fr.OverOffload()),
			Resident:       float64(fr.Resident()),
			Threshold:      float64(fr.Threshold()),
		}
		if total := row.FastPackets + row.SlowPackets + row.DropPackets; total > 0 {
			row.FastHitRate = row.FastPackets / total
		}
		return row
	},
}

// FlowRuleResults reduces detail rows to the X14 figure's curves: the
// conventional point each row was measured with — the Plain result of the
// same spec, so the figure needs no run of its own.
func FlowRuleResults(res []runner.SeriesResult[FlowRuleRow]) []runner.SeriesResult[Result] {
	out := make([]runner.SeriesResult[Result], len(res))
	for i, sr := range res {
		out[i] = runner.SeriesResult[Result]{Label: sr.Label, Results: make([]Result, len(sr.Results))}
		for j, row := range sr.Results {
			out[i].Results[j] = row.Result
		}
	}
	return out
}

// printFlowRule prints the X14 detail table.
func printFlowRule(w io.Writer, _ scenario.Preset, res []runner.SeriesResult[FlowRuleRow]) {
	fmt.Fprintf(w, "%-34s %10s %8s %12s %10s %10s %10s %10s %10s %8s %8s\n",
		"policy", "flows", "hit", "p99", "fast", "slow", "drop", "inserted", "refused", "evicted", "thr")
	for _, sr := range res {
		for _, r := range sr.Results {
			fmt.Fprintf(w, "%-34s %10d %7.1f%% %12v %10.0f %10.0f %10.0f %10.0f %10.0f %8.0f %8.0f\n",
				sr.Label, r.Flows, r.FastHitRate*100, r.Result.P99,
				r.FastPackets, r.SlowPackets, r.DropPackets,
				r.Insertions, r.OffloadRefused, r.LRUEvictions+r.IdleEvictions, r.Threshold)
		}
	}
	fmt.Fprintln(w)
}
