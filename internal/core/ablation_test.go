package core_test

import (
	"testing"
	"time"

	"mindgap/hypotheses"
	"mindgap/internal/core"
	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/systems/systest"
	"mindgap/internal/task"
	"mindgap/scenarios"
)

// The §5 ablations that only change constants are calibration blocks in
// the checked-in specs. These tests run the offload under the constants
// the figures and the hypothesis measure, read from those specs.

// specParams returns the model constants a spec calibrates.
func specParams(t *testing.T, sp scenario.Spec) params.Params {
	t.Helper()
	p, err := sp.Params()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// seriesParams returns the model constants of series i of a preset.
func seriesParams(t *testing.T, preset string, i int) params.Params {
	t.Helper()
	pr, err := scenarios.Load(preset)
	if err != nil {
		t.Fatal(err)
	}
	return specParams(t, pr.SpecFor(i))
}

func offloadCfg(p params.Params, workers, k int) core.OffloadConfig {
	return core.OffloadConfig{P: p, Workers: workers, Outstanding: k, Policy: core.LeastOutstanding}
}

// ablationThroughput is the rate a saturated 1µs fixed workload completes
// at under cfg: the Figure 6 regime the §5.1 ablations target.
func ablationThroughput(t *testing.T, cfg core.OffloadConfig, rps float64, measure int) float64 {
	t.Helper()
	rec, _, eng := systest.Run(t, func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) *core.Offload {
		return core.NewOffload(eng, cfg, pr, done)
	}, loadgen.Config{RPS: rps, Service: dist.Fixed{D: time.Microsecond}, Seed: 42}, measure)
	return rec.Throughput(eng.Now())
}

func TestOffloadLineRateAblationLiftsDispatcherCap(t *testing.T) {
	// §5.1(1): hardware scheduling must at least double the ARM cap.
	stock := ablationThroughput(t, offloadCfg(params.Default(), 16, 5), 6_000_000, 10000)
	cfg := offloadCfg(seriesParams(t, "figure6-linerate", 0), 16, 5)
	if fast := ablationThroughput(t, cfg, 6_000_000, 10000); fast < 2*stock {
		t.Fatalf("line-rate ablation: %.0f not ≥ 2× stock %.0f", fast, stock)
	}
}

func TestOffloadCXLAblationShrinksKRequirement(t *testing.T) {
	// §5.1(2): with coherent communication, k=1 no longer starves workers
	// the way the 2.56µs packet path does.
	stock := ablationThroughput(t, offloadCfg(params.Default(), 4, 1), 4_000_000, 8000)
	cfg := offloadCfg(seriesParams(t, "figure6-cxl", 0), 4, 1)
	if cxl := ablationThroughput(t, cfg, 4_000_000, 8000); cxl < 1.5*stock {
		t.Fatalf("CXL k=1 throughput %.0f not ≥ 1.5× stock %.0f", cxl, stock)
	}
}

func TestOffloadFullIdealNICBeatsShinjukuCap(t *testing.T) {
	// CXL plus line rate must exceed even the host dispatcher's ~3.5M/s
	// on the Figure 6 workload.
	cfg := offloadCfg(seriesParams(t, "figure6-linerate", 1), 16, 2)
	if got := ablationThroughput(t, cfg, 12_000_000, 20000); got < 5_000_000 {
		t.Fatalf("ideal NIC throughput %.0f, want > 5M", got)
	}
}

func TestOffloadDDIOToL1ReducesLatency(t *testing.T) {
	// §5.2: with DDIO-to-L1, pickup skips the near-cache fetch penalty;
	// the single-request latency drops by exactly the penalty arm A of
	// the hypothesis waives.
	h, err := hypotheses.Load("ddio-l1-saves-pickup")
	if err != nil {
		t.Fatal(err)
	}
	lat := func(p params.Params) time.Duration {
		eng := sim.New()
		var doneAt sim.Time
		sys := core.NewOffload(eng, offloadCfg(p, 1, 1), nil, func(*task.Request) { doneAt = eng.Now() })
		sys.Inject(task.New(1, 0, time.Microsecond))
		eng.Run()
		return doneAt.Duration()
	}
	l1, llc := specParams(t, h.A.Scenario), specParams(t, h.B.Scenario)
	if saved, want := lat(llc)-lat(l1), llc.PickupMemPenalty-l1.PickupMemPenalty; saved != want || want <= 0 {
		t.Fatalf("DDIO saving = %v, want %v > 0", saved, want)
	}
}
