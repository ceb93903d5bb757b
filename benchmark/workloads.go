package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/experiment"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
	"mindgap/internal/trace"
	"mindgap/scenarios"
)

// pointDef names one simulated load point of a workload by the checked-in
// preset series it comes from. Sizes are fixed here and recorded in
// README.md; they are part of the benchmark's definition.
type pointDef struct {
	// Name labels the point in the per-system ledger (systems.<name>.*).
	Name string
	// Preset and Series locate the spec under scenarios/.
	Preset string
	Series int
	// RPS is the open-loop offered rate inside the simulation.
	RPS float64
	// Warmup and Measure are completions discarded and recorded.
	Warmup, Measure int
	// Observers attaches attr + trace + telemetry on every timed rep (the
	// "probes on" workload); other workloads time the bare models.
	Observers observers
}

// observers selects which optional probes a point run attaches.
type observers struct{ Attr, Trace, Metrics bool }

var allObservers = observers{Attr: true, Trace: true, Metrics: true}

// tracerEvents is the request-trace buffer size of the probes-on workload.
const tracerEvents = 64 << 10

// workloadDef is one named workload. Names are permanent.
type workloadDef struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why string
	// Points are the sub-points one rep simulates, in order. Empty for the
	// grid workload, which execs the mindgap-bench binary instead.
	Points []pointDef
}

// warmReps are discarded before timing and counted in setup_s.
const warmReps = 3

// bimodalRPS is the offered rate of the bimodal-workload points.
const bimodalRPS = 400_000

var workloadDefs = []workloadDef{
	{
		Name: "fig2_offload",
		Why:  "paper's canonical offload point: heaviest per-request path (sim, fabric, nicmodel, core.Logic, cores), probes off",
		Points: []pointDef{
			{Name: "offload", Preset: "figure2", Series: 0, RPS: bimodalRPS, Warmup: 2000, Measure: 150_000},
		},
	},
	{
		Name: "flowrule_4k",
		Why:  "bypasses core.Logic, cores preemption and the NIC-host fabric; flow generator, rule table, far-future idle timers",
		Points: []pointDef{
			{Name: "flowrule", Preset: "figure-flowrule", Series: 1, RPS: 400_000, Warmup: 2000, Measure: 600_000},
		},
	},
	{
		Name: "attr_offload",
		Why:  "offload path with attribution, request trace and telemetry all attached: the probes-on cost",
		Points: []pointDef{
			{Name: "offload_informed", Preset: "table-attribution", Series: 0, RPS: 450_000, Warmup: 2000, Measure: 60_000, Observers: allObservers},
		},
	},
	{
		Name:   "systems_mix",
		Why:    "every baseline system model, the lossy-fabric fault path and the only 16-worker dispatcher scan",
		Points: systemsMixPoints(),
	},
	{
		Name: "grid_quick",
		Why:  "what users run: cold mindgap-bench -quality quick through the CLI, ~360 small points in parallel",
	},
}

func systemsMixPoints() []pointDef {
	var pts []pointDef
	for i, name := range []string{"offload", "shinjuku", "rss", "zygos", "flowdir", "rpcvalet", "erss"} {
		pts = append(pts, pointDef{Name: name, Preset: "baselines", Series: i, RPS: bimodalRPS, Warmup: 2000, Measure: 20_000})
	}
	return append(pts,
		pointDef{Name: "offload_lossy", Preset: "figure-faults-lossyfabric", Series: 1, RPS: 300_000, Warmup: 2000, Measure: 20_000},
		pointDef{Name: "offload_16w", Preset: "figure6", Series: 0, RPS: 1_000_000, Warmup: 2000, Measure: 20_000},
	)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// point is a pointDef compiled against the presets: ready to run.
type point struct {
	pointDef
	spec scenario.Spec
	cfg  experiment.PointConfig
}

// compilePoint loads and validates the preset and builds the bare factory.
// The seed is pinned on the spec so that faulted specs (which must carry a
// seed) and plain ones take it the same way.
func compilePoint(def pointDef, seed uint64) (*point, error) {
	p, err := scenarios.Load(def.Preset)
	if err != nil {
		return nil, err
	}
	if def.Series >= len(p.Series) {
		return nil, fmt.Errorf("preset %q has no series %d", def.Preset, def.Series)
	}
	sp := p.SpecFor(def.Series)
	sp.Quality = nil // sizes come from the benchmark, not the preset
	sp.Seed = seed
	cfg, err := experiment.PointConfigFor(sp, experiment.Quality{Warmup: def.Warmup, Measure: def.Measure, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("%s series %d: %w", def.Preset, def.Series, err)
	}
	cfg.OfferedRPS = def.RPS
	return &point{pointDef: def, spec: sp, cfg: cfg}, nil
}

func compilePoints(defs []pointDef, seed uint64) ([]*point, error) {
	pts := make([]*point, len(defs))
	for i, d := range defs {
		p, err := compilePoint(d, seed)
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

// pointRun is what one simulated point produced and what it cost.
type pointRun struct {
	Res      experiment.Result
	Requests int64 // warm-up + measured completions
	Injected int64
	Events   uint64
	HighWat  int
	Wall     time.Duration
	Failed   string // empty when the point passed its checks
	Digest   string
	Snapshot *telemetry.Snapshot
}

// countingSystem counts injected requests at the harness boundary.
type countingSystem struct {
	scenario.System
	injected *int64
}

func (c countingSystem) Inject(r *task.Request) {
	*c.injected++
	c.System.Inject(r)
}

// run simulates the point once. The engine is captured by wrapping the
// factory handed to RunPoint, so events executed and the pending high-water
// are read without any change to the simulator.
func (p *point) run(obs observers) pointRun {
	factory := p.cfg.Factory
	var reg *telemetry.Registry
	if obs != (observers{}) {
		var opts scenario.Options
		if obs.Attr {
			opts.Attr = attr.New(attr.Config{})
		}
		if obs.Trace {
			opts.Tracer = trace.New(tracerEvents)
		}
		if obs.Metrics {
			reg = telemetry.NewRegistry()
			opts.Metrics = reg
		}
		f, err := scenario.BuildWith(p.spec, opts)
		if err != nil {
			return pointRun{Failed: err.Error()}
		}
		factory = f
	}
	var eng *sim.Engine
	var injected int64
	cfg := p.cfg
	cfg.Factory = func(e *sim.Engine, rec *stats.Recorder, done func(*task.Request)) scenario.System {
		eng = e
		return countingSystem{System: factory(e, rec, done), injected: &injected}
	}
	start := time.Now()
	res := experiment.RunPoint(cfg)
	out := pointRun{
		Res:      res,
		Requests: int64(cfg.Warmup) + res.Completed,
		Injected: injected,
		Events:   eng.Executed(),
		HighWat:  eng.HighWater(),
		Wall:     time.Since(start),
	}
	switch {
	case res.Truncated:
		out.Failed = "truncated by the watchdog"
	case res.Completed != int64(cfg.Measure):
		out.Failed = fmt.Sprintf("completed %d of %d", res.Completed, cfg.Measure)
	case res.Completed+res.Dropped > injected:
		out.Failed = fmt.Sprintf("completed %d + dropped %d exceeds injected %d", res.Completed, res.Dropped, injected)
	}
	out.Digest = digestOf(res, out.Events)
	if reg != nil {
		s := reg.Snapshot()
		out.Snapshot = &s
	}
	return out
}

// digestOf hashes every simulated statistic of a point: two runs of the
// same (spec, seed) must agree on all of them, bit for bit.
func digestOf(r experiment.Result, events uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %x %d %d",
		r.Completed, r.Dropped, r.Preemptions, r.P50, r.P99, r.Mean, r.Max,
		r.AchievedRPS, r.SimTime, events)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// combineDigests folds sub-point digests, in order, into the rep's digest.
func combineDigests(ds []string) string {
	if len(ds) == 1 {
		return ds[0]
	}
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
