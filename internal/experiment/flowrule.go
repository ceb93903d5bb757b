package experiment

import (
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/telemetry"
)

// This file declares the X14 flow-rule detail rows: the fast-path /
// slow-path SmartNIC steering system swept across concurrent-flow
// populations (the figure-flowrule preset's fsweep axis), reading the
// rule-table telemetry — fast-path hit rate, insertion-pipeline
// pressure, eviction churn — behind each measured point. The X14 figure
// and its detail table are both reductions of these rows: one run, one
// set of cache keys.

// FlowRuleRow is one measured point of the flow-rule detail table: the
// conventional latency point plus the rule-table counters that explain
// it.
type FlowRuleRow struct {
	// Label names the series (offload policy) from the preset.
	Label string
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

// read fills the row's counters from the registry keys published by
// internal/systems/flowrule.
func (r *FlowRuleRow) read(reg *telemetry.Registry) {
	get := func(key string) float64 {
		v, _ := reg.GaugeValue(key)
		return v
	}
	r.FastPackets = get("flowrule/fast_packets")
	r.SlowPackets = get("flowrule/slow_packets")
	r.DropPackets = get("flowrule/drop_packets")
	r.Insertions = get("flowrule/rule_insertions")
	r.LRUEvictions = get("flowrule/rule_evictions_lru")
	r.IdleEvictions = get("flowrule/rule_evictions_idle")
	r.OffloadRefused = get("flowrule/offload_refused")
	r.Resident = get("flowrule/rules_resident")
	r.Threshold = get("flowrule/offload_threshold")
	if total := r.FastPackets + r.SlowPackets + r.DropPackets; total > 0 {
		r.FastHitRate = r.FastPackets / total
	}
}

// FlowRuleDetail is the X14 detail row kind: the conventional point of
// a flow sweep measured with a telemetry registry attached. The registry
// is created inside the point run — never shared across concurrent sweep
// points — so detail tables are byte-identical at any runner
// parallelism.
var FlowRuleDetail = Kind[FlowRuleRow]{
	salt: "flowdetail1",
	run: func(cfg PointConfig, sp scenario.Spec, x float64) FlowRuleRow {
		reg := telemetry.NewRegistry()
		cfg.Factory = observed(sp, scenario.Options{Metrics: reg})
		row := FlowRuleRow{Label: sp.Name, Flows: int(x), Result: Plain.run(cfg, sp, x)}
		row.read(reg)
		return row
	},
}

// FlowRuleResults reduces detail rows to the X14 figure's curves: the
// conventional point each row was measured with. The observer contract
// (a telemetry registry changes no simulated statistic) makes that point
// identical to the Plain result of the same spec, so the figure needs no
// run of its own.
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
