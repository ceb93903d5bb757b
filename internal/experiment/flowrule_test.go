package experiment

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/scenarios"
)

// smallFlowRulePreset shrinks the checked-in figure-flowrule preset to
// test size: runtime quality instead of the pinned counts, and a short
// fsweep grid.
func smallFlowRulePreset(t *testing.T) scenario.Preset {
	t.Helper()
	p := scenarios.MustLoad("figure-flowrule")
	load := *p.Load
	load.FSweep = &scenario.FSweep{Lo: 256, Hi: 4096, Mul: 4}
	p.Load = &load
	for i := range p.Series {
		p.Series[i].Quality = nil
	}
	return p
}

// TestFlowRuleFigureParallelismInvariant pins the acceptance property
// that a figure-flowrule run is byte-identical at -j1 and -j4: flow
// records, rule tables, and telemetry registries are all per-point
// state, so runner parallelism must not leak into results.
func TestFlowRuleFigureParallelismInvariant(t *testing.T) {
	q := Quality{Warmup: 300, Measure: 2000, Seed: 7}
	serial := renderFigure(t, smallFlowRulePreset(t), q, 1)
	parallel := renderFigure(t, smallFlowRulePreset(t), q, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("figure-flowrule output differs between -j1 and -j4:\n-- j1 --\n%s\n-- j4 --\n%s", serial, parallel)
	}
}

// TestFlowRuleFigureShowsCrossover pins the X14 shape on the shrunken
// grid: every series must be healthy (unsaturated) at the smallest
// population, and the eager threshold-4 policy must be saturated even
// there — its insertion pipeline is flooded by rat flows.
func TestFlowRuleFigureShowsCrossover(t *testing.T) {
	q := Quality{Warmup: 300, Measure: 2000, Seed: 7}
	f := runFigure(t, smallFlowRulePreset(t), q, nil)
	for _, s := range f.Series {
		if len(s.Results) == 0 {
			t.Fatalf("series %q has no points", s.Label)
		}
		first := s.Results[0]
		if s.Label == "threshold 4 (offload everything)" {
			if !first.Saturated {
				t.Errorf("series %q: expected saturation at %v flows (flooded insertion pipeline)",
					s.Label, first.Point.OfferedRPS)
			}
			continue
		}
		if first.Saturated {
			t.Errorf("series %q: saturated at the smallest population %v flows",
				s.Label, first.Point.OfferedRPS)
		}
	}
}

// TestFlowRuleTableRows checks the detail table's telemetry plumbing on
// the full preset: every row must carry a coherent packet split and the
// policies must differ in the direction the model predicts.
func TestFlowRuleTableRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full-preset detail table is not -short sized")
	}
	res, err := Run(context.Background(), nil, scenarios.MustLoad("figure-flowrule"), Quick, FlowRuleDetail)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res)
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 4 series x 5 populations", len(rows))
	}
	byLabel := map[string][]FlowRuleRow{}
	for _, sr := range res {
		for _, r := range sr.Results {
			if r.FastPackets+r.SlowPackets == 0 {
				t.Fatalf("row %s/%d saw no packets", sr.Label, r.Flows)
			}
			if r.FastHitRate < 0 || r.FastHitRate > 1 {
				t.Fatalf("row %s/%d hit rate = %v", sr.Label, r.Flows, r.FastHitRate)
			}
		}
		byLabel[sr.Label] = sr.Results
	}
	eager, ok := byLabel["threshold 4 (offload everything)"]
	if !ok {
		t.Fatal("missing the threshold-4 series")
	}
	for _, r := range eager {
		if r.OffloadRefused == 0 {
			t.Errorf("threshold 4 at %d flows: no refused offloads; the insertion pipeline should overflow", r.Flows)
		}
	}
	// The million-flow acceptance point: the sweep's top population ran.
	var maxFlows int
	for _, r := range rows {
		if r.Flows > maxFlows {
			maxFlows = r.Flows
		}
	}
	if maxFlows < 1_000_000 {
		t.Errorf("largest population = %d, want >= 1M concurrent flows", maxFlows)
	}
}

// TestFlowRuleFigureIsDetailReduction is the contract that lets the X14
// figure and its detail table share one run: the detail rows reduced to
// their conventional points are the preset's Plain results, at any
// parallelism — the checked-in preset up to its million-flow point, or
// the shrunken one under -short.
func TestFlowRuleFigureIsDetailReduction(t *testing.T) {
	p, q := scenarios.MustLoad("figure-flowrule"), Quick
	if testing.Short() {
		p, q = smallFlowRulePreset(t), Quality{Warmup: 300, Measure: 2000, Seed: 7}
	}
	for _, par := range []int{1, 4} {
		rn := &runner.Runner{Parallelism: par}
		plain, err := Run(context.Background(), rn, p, q, Plain)
		if err != nil {
			t.Fatal(err)
		}
		detail, err := Run(context.Background(), rn, p, q, FlowRuleDetail)
		if err != nil {
			t.Fatal(err)
		}
		if got := FlowRuleResults(detail); !reflect.DeepEqual(got, plain) {
			t.Fatalf("-j%d: detail rows reduce to\n%+v\nPlain measures\n%+v", par, got, plain)
		}
	}
}
