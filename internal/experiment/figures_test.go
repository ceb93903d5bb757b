package experiment

import (
	"context"
	"testing"
	"time"

	"mindgap/scenarios"
)

// These integration tests pin the qualitative claims of each paper figure
// — who wins, roughly by how much, and where the knees fall. They run the
// real figure harness at reduced quality, so they are the slowest tests in
// the repository; -short skips them.

func shapeQuality() Quality { return Quality{Warmup: 1_000, Measure: 8_000, Seed: 7} }

// shapeFigure measures a checked-in figure preset on the default runner.
func shapeFigure(t *testing.T, presetID string, q Quality) Figure {
	t.Helper()
	return runFigure(t, scenarios.MustLoad(presetID), q, nil)
}

func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	f := shapeFigure(t, "figure2", shapeQuality())
	offload, shin := f.Series[0], f.Series[1]
	// Offload (4 workers) must saturate at a strictly higher load than
	// Shinjuku (3 workers).
	if offload.SaturationPoint() <= shin.SaturationPoint() {
		t.Fatalf("offload sat %v ≤ shinjuku sat %v",
			offload.SaturationPoint(), shin.SaturationPoint())
	}
	// Both must hold low two-digit-µs p99 at low load (preemption keeps
	// the bimodal tail in check).
	for _, s := range f.Series {
		if p99 := s.Results[0].P99; p99 > 60*time.Microsecond {
			t.Fatalf("%s low-load p99 = %v, want well below 60µs", s.Label, p99)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	f := shapeFigure(t, "figure3", shapeQuality())
	w16, w4 := f.Series[0], f.Series[1]
	t4 := func(k int) float64 { return w4.Results[k-1].AchievedRPS }
	t16 := func(k int) float64 { return w16.Results[k-1].AchievedRPS }
	// 4 workers: large gain from k=1 to k=5 (paper: +250%).
	gain4 := t4(5)/t4(1) - 1
	if gain4 < 1.5 {
		t.Fatalf("4-worker k=1→5 gain = %.0f%%, want ≥ 150%%", gain4*100)
	}
	// Throughput must be non-decreasing in k for both counts.
	for k := 2; k <= 7; k++ {
		if t4(k) < 0.98*t4(k-1) || t16(k) < 0.98*t16(k-1) {
			t.Fatalf("throughput decreased with k at k=%d", k)
		}
	}
	// Both plateau at the same dispatcher cap (within 10%).
	if r := t16(7) / t4(7); r < 0.9 || r > 1.1 {
		t.Fatalf("plateaus differ: 16w=%.0f 4w=%.0f", t16(7), t4(7))
	}
	// 16 workers must dominate 4 workers at every k.
	for k := 1; k <= 7; k++ {
		if t16(k) < t4(k)-1 {
			t.Fatalf("16 workers below 4 workers at k=%d", k)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	f := shapeFigure(t, "figure4", shapeQuality())
	offload, shin := f.Series[0], f.Series[1]
	// The extra worker must push offload's knee past Shinjuku's by
	// roughly the worker ratio (4/3 ≈ 1.33; allow 1.15+).
	ratio := offload.SaturationPoint() / shin.SaturationPoint()
	if ratio < 1.15 {
		t.Fatalf("offload/shinjuku saturation ratio = %.2f, want ≥ 1.15", ratio)
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	f := shapeFigure(t, "figure5", shapeQuality())
	offload, shin := f.Series[0], f.Series[1]
	if offload.SaturationPoint() <= shin.SaturationPoint() {
		t.Fatalf("offload sat %v ≤ shinjuku sat %v (16 vs 15 workers at 100µs)",
			offload.SaturationPoint(), shin.SaturationPoint())
	}
	// At 100µs service, latency floors sit just above 100µs for both.
	for _, s := range f.Series {
		p99 := s.Results[0].P99
		if p99 < 100*time.Microsecond || p99 > 150*time.Microsecond {
			t.Fatalf("%s low-load p99 = %v, want ≈110µs", s.Label, p99)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	f := shapeFigure(t, "figure6", shapeQuality())
	offload, shin := f.Series[0], f.Series[1]
	// The crossover claim: Shinjuku greatly outperforms the offload at
	// 1µs and high worker counts (paper shows ≥ 2×).
	ratio := shin.PeakThroughput() / offload.PeakThroughput()
	if ratio < 1.8 {
		t.Fatalf("shinjuku/offload peak ratio = %.2f, want ≥ 1.8", ratio)
	}
	// Offload workers must be starved at its saturation point — the §5.1
	// bottleneck diagnosis.
	last := offload.Results[len(offload.Results)-1]
	if last.WorkerIdleFraction < 0.5 {
		t.Fatalf("offload worker idle = %.2f at saturation, want > 0.5", last.WorkerIdleFraction)
	}
}

func TestFigure6AblationsRemoveCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	q := shapeQuality()
	stock := shapeFigure(t, "figure6", q)
	stockOffload := stock.Series[0].PeakThroughput()
	shinPeak := stock.Series[1].PeakThroughput()

	lr := shapeFigure(t, "figure6-linerate", q)
	lrPeak := lr.Series[0].PeakThroughput()
	if lrPeak < 1.5*stockOffload {
		t.Fatalf("line-rate ablation peak %.0f not ≥ 1.5× stock offload %.0f", lrPeak, stockOffload)
	}
	ideal := lr.Series[1].PeakThroughput()
	if ideal < shinPeak {
		t.Fatalf("full ideal NIC peak %.0f below shinjuku %.0f — crossover not removed", ideal, shinPeak)
	}
}

func TestWorkerWaitDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	res, err := Run(context.Background(), nil, scenarios.MustLoad("table-wait"), shapeQuality(), Plain)
	if err != nil {
		t.Fatal(err)
	}
	r := WorkerWait(res)
	// T3's direction: at saturation, 1µs-workload workers wait far more
	// than 100µs-workload workers (paper: 110% more).
	if r.IdleAt1us <= r.IdleAt100us {
		t.Fatalf("idle@1µs %.3f ≤ idle@100µs %.3f", r.IdleAt1us, r.IdleAt100us)
	}
	if r.ExtraWaitFrac < 1.0 {
		t.Fatalf("extra waiting = %.0f%%, want ≥ 100%%", r.ExtraWaitFrac*100)
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	f := shapeFigure(t, "baselines", Quality{Warmup: 500, Measure: 5_000, Seed: 7})
	byName := map[string]Series{}
	for _, s := range f.Series {
		byName[s.Label] = s
	}
	// The preemptive centralized systems must hold a low p99 at moderate
	// load where run-to-completion baselines suffer head-of-line blocking.
	at := func(label string, idx int) Result {
		s := byName[label]
		if idx >= len(s.Results) {
			idx = len(s.Results) - 1
		}
		return s.Results[idx]
	}
	// Index 7 = 400k offered (ρ ≈ 0.55 for 4 workers).
	offload := at("shinjuku-offload (4 workers, k=4)", 7)
	rss := at("rss/ix (4 workers)", 7)
	if !offload.Saturated && !rss.Saturated && offload.P99 >= rss.P99 {
		t.Fatalf("offload p99 %v not below rss p99 %v at moderate load", offload.P99, rss.P99)
	}
}
