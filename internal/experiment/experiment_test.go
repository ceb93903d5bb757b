package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/params"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/stats"
)

// tiny is a fast quality for unit tests.
var tiny = Quality{Warmup: 500, Measure: 3000, Seed: 7}

// factoryFor assembles a system through the scenario registry.
func factoryFor(t *testing.T, system string, k scenario.Knobs) scenario.Factory {
	t.Helper()
	f, err := scenario.Build(scenario.Spec{System: system, Knobs: &k})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sweepRSS measures an inline RSS spec (fixed service time) across a load
// grid through the preset compiler, early-stop rule included.
func sweepRSS(t *testing.T, workers int, workload string, grid scenario.Grid, q Quality) []Result {
	t.Helper()
	s, err := SpecSeries("", scenario.Spec{
		System:   "rss",
		Knobs:    &scenario.Knobs{Workers: workers},
		Workload: workload,
		Load:     &scenario.LoadSpec{Grid: &grid},
	}, q, Plain)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.RunOne(context.Background(), nil, "sweep", s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunPointBasics(t *testing.T) {
	r := RunPoint(PointConfig{
		Factory:    factoryFor(t, "offload", scenario.Knobs{Workers: 2, Outstanding: 2}),
		Service:    dist.Fixed{D: 5 * time.Microsecond},
		OfferedRPS: 100_000,
		Warmup:     tiny.Warmup,
		Measure:    tiny.Measure,
		Seed:       tiny.Seed,
	})
	if r.SystemName != "shinjuku-offload" {
		t.Fatalf("SystemName = %q", r.SystemName)
	}
	if r.Completed != int64(tiny.Measure) {
		t.Fatalf("Completed = %d, want %d", r.Completed, tiny.Measure)
	}
	if r.Saturated {
		t.Fatal("lightly loaded point flagged saturated")
	}
	// Achieved must track offered within sampling noise.
	if r.AchievedRPS < 90_000 || r.AchievedRPS > 110_000 {
		t.Fatalf("AchievedRPS = %.0f", r.AchievedRPS)
	}
	if r.P99 < r.P50 || r.P50 <= 0 {
		t.Fatalf("quantiles inconsistent: p50=%v p99=%v", r.P50, r.P99)
	}
	if r.SimTime <= 0 {
		t.Fatal("SimTime not recorded")
	}
}

func TestRunPointDetectsSaturation(t *testing.T) {
	// 2 workers at 5µs ⇒ ~350k capacity; offer 800k.
	r := RunPoint(PointConfig{
		Factory:    factoryFor(t, "offload", scenario.Knobs{Workers: 2, Outstanding: 2}),
		Service:    dist.Fixed{D: 5 * time.Microsecond},
		OfferedRPS: 800_000,
		Warmup:     tiny.Warmup,
		Measure:    tiny.Measure,
		Seed:       tiny.Seed,
	})
	if !r.Saturated {
		t.Fatal("overloaded point not flagged saturated")
	}
	if r.AchievedRPS > 500_000 {
		t.Fatalf("achieved %.0f above physical capacity", r.AchievedRPS)
	}
}

func TestRunPointWatchdogTruncates(t *testing.T) {
	r := RunPoint(PointConfig{
		Factory:    factoryFor(t, "offload", scenario.Knobs{Workers: 1, Outstanding: 1}),
		Service:    dist.Fixed{D: 100 * time.Microsecond},
		OfferedRPS: 1_000_000, // 100× beyond capacity
		Warmup:     1000,
		Measure:    1_000_000, // cannot complete before the watchdog
		MaxSimTime: 20 * time.Millisecond,
		Seed:       1,
	})
	if !r.Truncated || !r.Saturated {
		t.Fatalf("expected truncated+saturated, got %+v", r)
	}
	if r.SimTime > 25*time.Millisecond {
		t.Fatalf("watchdog ignored: SimTime = %v", r.SimTime)
	}
}

func TestRunPointValidation(t *testing.T) {
	f := factoryFor(t, "rss", scenario.Knobs{Workers: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("zero Measure did not panic")
		}
	}()
	RunPoint(PointConfig{Factory: f, Service: dist.Fixed{D: 1}, OfferedRPS: 1000})
}

func TestSweepStopsAfterSaturation(t *testing.T) {
	// One worker at 10µs: capacity ≈ 97k.
	grid := scenario.Grid{Lo: 50_000, Hi: 400_000, Step: 50_000}
	res := sweepRSS(t, 1, "fixed:10µs", grid, Quality{Warmup: 200, Measure: 1500, Seed: 3})
	if len(res) >= len(grid.Points()) {
		t.Fatalf("sweep did not stop early: %d points", len(res))
	}
	last := res[len(res)-1]
	if !last.Saturated {
		t.Fatal("sweep ended on a non-saturated point")
	}
}

func TestTimerCostsMatchPaper(t *testing.T) {
	rows := TimerCosts(params.Default())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	set, fire := rows[0], rows[1]
	if set.Reduction < 0.92 || set.Reduction > 0.94 {
		t.Fatalf("set reduction %.3f, want ≈0.93", set.Reduction)
	}
	if fire.Reduction < 0.69 || fire.Reduction > 0.71 {
		t.Fatalf("fire reduction %.3f, want ≈0.70", fire.Reduction)
	}
	if set.DirectTime != 17*time.Nanosecond || fire.DirectTime != 553*time.Nanosecond {
		t.Fatalf("direct times %v/%v", set.DirectTime, fire.DirectTime)
	}
}

func TestCommLatency(t *testing.T) {
	r := CommLatency(params.Default())
	if r.Modelled != r.Paper {
		t.Fatalf("modelled %v != paper %v", r.Modelled, r.Paper)
	}
}

func TestIPCOverheadDirection(t *testing.T) {
	_, res := tableRun(t, nil, "table-ipc", tiny, Plain)
	r := IPCOverhead(res)
	if r.Overhead <= 0 {
		t.Fatalf("IPC overhead %v, want positive (paper: ≈2µs)", r.Overhead)
	}
	if r.Overhead > 5*time.Microsecond {
		t.Fatalf("IPC overhead %v implausibly large", r.Overhead)
	}
}

func TestRenderAndCSV(t *testing.T) {
	q := Quality{Warmup: 200, Measure: 1000, Seed: 3}
	fig := Figure{
		ID: "test", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "s1", Results: sweepRSS(t, 2, "fixed:5µs", scenario.Grid{Lo: 50_000, Hi: 100_000, Step: 50_000}, q)}},
	}
	var sb strings.Builder
	fig.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== test", "-- s1", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := fig.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("CSV lines = %d:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "figure,series,x,") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestSeriesSummaries(t *testing.T) {
	s := Series{Results: []Result{
		{Point: pointAt(100, 100, false)},
		{Point: pointAt(200, 195, false)},
		{Point: pointAt(300, 220, true)},
	}}
	if got := s.SaturationPoint(); got != 300 {
		t.Fatalf("SaturationPoint = %v", got)
	}
	if got := s.PeakThroughput(); got != 220 {
		t.Fatalf("PeakThroughput = %v", got)
	}
	empty := Series{}
	if empty.SaturationPoint() != 0 || empty.PeakThroughput() != 0 {
		t.Fatal("empty series summaries nonzero")
	}
	never := Series{Results: []Result{{Point: pointAt(100, 100, false)}}}
	if never.SaturationPoint() != 100 {
		t.Fatal("unsaturated series should report last x")
	}
}

func pointAt(offered, achieved float64, sat bool) stats.Point {
	return stats.Point{OfferedRPS: offered, AchievedRPS: achieved, Saturated: sat}
}

func TestLoadGrid(t *testing.T) {
	// Load grids now come from scenario specs; the figure presets rely on
	// inclusive endpoints and exact integer-index generation.
	g := (scenario.Grid{Lo: 100, Hi: 500, Step: 100}).Points()
	if len(g) != 5 || g[0] != 100 || g[4] != 500 {
		t.Fatalf("Grid.Points = %v", g)
	}
}

func TestReplicate(t *testing.T) {
	sp := scenario.Spec{
		System:   "rss",
		Knobs:    &scenario.Knobs{Workers: 2},
		Workload: "fixed:5µs",
		Load:     &scenario.LoadSpec{RPS: 100_000},
	}
	q := Quality{Warmup: 200, Measure: 1500}
	rep, err := Replicate(context.Background(), nil, sp, q, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	if rep.MeanP99 <= 0 || rep.MeanAchieved <= 0 {
		t.Fatalf("summary zero: %+v", rep)
	}
	if rep.AnySaturated {
		t.Fatal("light load flagged saturated")
	}
	// Cross-seed noise on a light fixed workload should be small.
	if rep.RelativeP99Spread() > 0.25 {
		t.Fatalf("p99 spread %.2f too large", rep.RelativeP99Spread())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty seeds did not panic")
			}
		}()
		Replicate(context.Background(), nil, sp, q, nil)
	}()
	// Pinning Spec.Seed alongside an explicit seed list must panic: the
	// pin would win over the list, and silently honouring it would let a
	// replicate summary masquerade as a single-seed run.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Spec.Seed + seed list did not panic")
			}
		}()
		bad := sp
		bad.Seed = 42
		Replicate(context.Background(), nil, bad, q, []uint64{1, 2})
	}()
}

func TestDispersionSensitivityMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	rows := DispersionRows(tableRun(t, nil, "table-dispersion", Quality{Warmup: 500, Measure: 6_000, Seed: 7}, ShortTail))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// CV² must increase along the sweep by construction.
	for i := 1; i < len(rows); i++ {
		if rows[i].CV2 <= rows[i-1].CV2 {
			t.Fatalf("CV² not increasing: %+v", rows)
		}
	}
	// The preemption win must be largest for the most dispersed workload
	// and essentially absent for the deterministic one.
	if rows[0].Win > 1.3 || rows[0].Win < 0.7 {
		t.Fatalf("fixed workload preemption 'win' = %.2f, want ≈1", rows[0].Win)
	}
	last := rows[len(rows)-1]
	if last.Win < 2 {
		t.Fatalf("bimodal short-request preemption win = %.2f, want ≥ 2", last.Win)
	}
	if last.Win <= rows[0].Win {
		t.Fatal("preemption win did not grow with dispersion")
	}
}

func TestPlotRendersAllSeries(t *testing.T) {
	q := Quality{Warmup: 200, Measure: 1000, Seed: 3}
	fig := Figure{
		ID: "test", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", Results: sweepRSS(t, 2, "fixed:5µs", scenario.Grid{Lo: 50_000, Hi: 150_000, Step: 50_000}, q)},
			{Label: "b", Results: sweepRSS(t, 2, "fixed:5µs", scenario.Grid{Lo: 50_000, Hi: 100_000, Step: 50_000}, q)},
		},
	}
	var sb strings.Builder
	fig.Plot(&sb, 60, 12)
	out := sb.String()
	for _, want := range []string{"o = a", "x = b", "log scale", "+--"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	if !strings.ContainsAny(out, "ox") {
		t.Fatal("no data glyphs plotted")
	}
	// Empty figure must not panic.
	sb.Reset()
	Figure{ID: "empty"}.Plot(&sb, 0, 0)
	if !strings.Contains(sb.String(), "no data") {
		t.Fatal("empty figure plot missing placeholder")
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[float64]string{
		1.5e9: "1.5s", 2.3e6: "2.3ms", 4.2e3: "4.2µs", 500: "500ns",
	}
	for in, want := range cases {
		if got := formatNanos(in); got != want {
			t.Fatalf("formatNanos(%v) = %q, want %q", in, got, want)
		}
	}
	if formatCount(2.5e6) != "2.5M" || formatCount(300_000) != "300k" || formatCount(42) != "42" {
		t.Fatal("formatCount wrong")
	}
}

func TestPolicyAblationInformedWins(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	rows := PolicyRows(tableRun(t, nil, "table-policy", Quality{Warmup: 2000, Measure: 20000, Seed: 7}, Plain))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPolicy := map[string]PolicyRow{}
	for _, r := range rows {
		byPolicy[r.Policy.String()] = r
	}
	informed := byPolicy["informed-least-loaded"]
	rr := byPolicy["round-robin"]
	// The informed policy must beat blind round-robin on the tail by a
	// meaningful margin in this deep-stash dispersive regime.
	if float64(informed.P99) > 0.9*float64(rr.P99) {
		t.Fatalf("informed p99 %v not ≤ 0.9× round-robin %v", informed.P99, rr.P99)
	}
	// Throughput is load-bound and must match across policies.
	for _, r := range rows {
		if r.Achieved < 0.95*rr.Achieved || r.Achieved > 1.05*rr.Achieved {
			t.Fatalf("achieved rates diverge: %+v", rows)
		}
	}
}

func TestAffinityAblationReducesMigrations(t *testing.T) {
	if testing.Short() {
		t.Skip("figure harness test")
	}
	_, res := tableRun(t, nil, "table-affinity", Quality{Warmup: 1000, Measure: 10000, Seed: 7}, Affinity)
	r := AffinityAblation(res)
	if r.MigrationsOff == 0 || r.Preemptions == 0 {
		t.Fatalf("no preemption activity: %+v", r)
	}
	if float64(r.MigrationsOn) > 0.7*float64(r.MigrationsOff) {
		t.Fatalf("affinity did not cut migrations: off=%d on=%d",
			r.MigrationsOff, r.MigrationsOn)
	}
	// The latency impact at a 250ns penalty is small; just require that
	// affinity does not hurt the mean materially.
	if float64(r.MeanOn) > 1.1*float64(r.MeanOff) {
		t.Fatalf("affinity hurt mean latency: off=%v on=%v", r.MeanOff, r.MeanOn)
	}
}

func TestRunPointIsDeterministic(t *testing.T) {
	// The reproducibility guarantee behind EXPERIMENTS.md: identical
	// config + seed ⇒ bit-identical measurements, across every system.
	slice := scenario.Duration(10 * time.Microsecond)
	systems := map[string]scenario.Knobs{
		"offload":  {Workers: 3, Outstanding: 3, Slice: slice},
		"shinjuku": {Workers: 2, Slice: slice},
		"rss":      {Workers: 3},
		"zygos":    {Workers: 3},
		"rpcvalet": {Workers: 3},
		"erss":     {Workers: 3},
	}
	for name, k := range systems {
		cfg := PointConfig{
			Factory:    factoryFor(t, name, k),
			Service:    dist.Bimodal{P1: 0.95, D1: 3 * time.Microsecond, D2: 50 * time.Microsecond},
			OfferedRPS: 200_000,
			Warmup:     300, Measure: 2_000, Seed: 99,
		}
		a := RunPoint(cfg)
		b := RunPoint(cfg)
		if a.Point != b.Point {
			t.Errorf("%s: rerun diverged:\n  %+v\n  %+v", name, a.Point, b.Point)
		}
	}
}
