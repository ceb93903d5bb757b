package hypothesis

import (
	"context"
	"sync"
	"testing"
	"time"

	"mindgap/internal/experiment"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/scenarios"
)

// runQuality keeps executed hypotheses test-sized.
var runQuality = experiment.Quality{Warmup: 500, Measure: 3_000, Seed: 7}

// TestMisDispatchIsMeasured: a mis_dispatch claim reads the decision audit,
// so its arms must run with the collector attached. Informed offload at
// 450 krps (the attribution table's point) mis-dispatches a sizable share
// of its decisions; an arm that reads 0 measured nothing, and any claim
// over it would pass or fail vacuously.
func TestMisDispatchIsMeasured(t *testing.T) {
	arm := func(policy string) scenario.Spec {
		return scenario.Spec{
			System: "offload",
			Knobs: &scenario.Knobs{Workers: 4, Outstanding: 4, Slice: scenario.Duration(10 * time.Microsecond),
				Policy: policy},
			Workload: "bimodal:0.995:5µs:100µs",
			Load:     &scenario.LoadSpec{RPS: 450_000},
		}
	}
	h := Spec{
		ID:         "test-mis-dispatch",
		Claim:      "informed and round-robin offload mis-dispatch alike at 450 krps",
		Metric:     "mis_dispatch",
		Seeds:      []uint64{7, 11},
		Controlled: []string{"system", "workload", "workers", "outstanding", "slice", "load"},
		Varied:     []string{"policy"},
		A:          Arm{Label: "informed", Scenario: arm("informed-least-loaded")},
		B:          Arm{Label: "round-robin", Scenario: arm("round-robin")},
		Criterion:  CriterionSpec{Kind: Equivalence, Tolerance: 0.5},
	}
	rep, err := Run(context.Background(), &runner.Runner{Parallelism: 2}, h, runQuality)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.A <= 0 || r.B <= 0 {
			t.Errorf("seed %d: mis-dispatch rates %+v, want both nonzero", r.Seed, r)
		}
	}
}

// TestHypothesesReuseFigurePoints: a hypothesis arm that is a preset series
// at the figure's seed and quality is the figure's point, so on the runner
// that measured the figure every point of the hypothesis is served.
func TestHypothesesReuseFigurePoints(t *testing.T) {
	rn := &runner.Runner{Parallelism: 2}
	p := scenarios.MustLoad("table-attribution")
	if _, err := experiment.Run(context.Background(), rn, p, runQuality, experiment.Plain); err != nil {
		t.Fatal(err)
	}
	var (
		mu             sync.Mutex
		points, cached int
	)
	rn.Progress = func(ev runner.Event) {
		mu.Lock()
		defer mu.Unlock()
		points++
		if ev.Cached {
			cached++
		}
	}
	h := Spec{
		ID:         "test-reuse",
		Claim:      "informed offload beats rss on p99",
		Metric:     "p99",
		Seeds:      []uint64{runQuality.Seed},
		Controlled: []string{"workload", "workers", "load"},
		Varied:     []string{"system", "outstanding", "slice", "policy"},
		A:          Arm{Label: "offload", Scenario: p.SpecFor(0)},
		B:          Arm{Label: "rss", Scenario: p.SpecFor(1)},
		Criterion:  CriterionSpec{Kind: Dominance},
	}
	if _, err := Run(context.Background(), rn, h, runQuality); err != nil {
		t.Fatal(err)
	}
	if points != 2 || cached != points {
		t.Fatalf("hypothesis ran %d points, %d served from the figure's run; want 2 and 2", points, cached)
	}
}
