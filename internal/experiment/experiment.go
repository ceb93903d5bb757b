// Package experiment is the measurement harness that regenerates every
// figure and in-text number of the paper's evaluation: it drives a
// scheduling system with the open-loop load generator, handles warmup,
// detects saturation, and produces the latency-vs-throughput rows the paper
// plots.
package experiment

import (
	"fmt"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/probe"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// PointConfig describes a single measured load point.
type PointConfig struct {
	// Factory builds the system under test.
	Factory scenario.Factory
	// Service is the fake-work service-time distribution. For flow
	// workloads it is the slow-path per-packet processing cost.
	Service dist.Distribution
	// Keys optionally samples per-request application keys.
	Keys *dist.ZipfKeys
	// Flow, when set, drives the point with the flow-keyed generator
	// (the constant flow shape at the spec's population) instead of the
	// open-loop i.i.d. stream; OfferedRPS is then the batch rate.
	Flow *scenario.FlowSpec
	// Tenants, when set, drives the point with one open-loop stream per
	// co-located tenant instead of the single Service stream; OfferedRPS
	// is then their combined rate.
	Tenants []Tenant
	// OfferedRPS is the open-loop arrival rate.
	OfferedRPS float64
	// Warmup completions are discarded; Measure completions are recorded.
	Warmup, Measure int
	// Seed fixes the workload streams.
	Seed uint64
	// MaxSimTime bounds simulated time per point; zero derives a bound
	// from the expected run length. Points that hit the bound are
	// truncated (and almost always saturated).
	MaxSimTime time.Duration
}

// Tenant is one tenant's request stream: its own offered rate and
// service-time distribution (§2.2's co-located applications).
type Tenant struct {
	RPS     float64
	Service dist.Distribution
}

// Result bundles the measured point with auxiliary observations.
type Result struct {
	stats.Point
	// SystemName echoes the system under test.
	SystemName string
	// SimTime is the simulated time consumed by the point.
	SimTime time.Duration
	// Truncated is set when the watchdog ended the run before Measure
	// completions were observed.
	Truncated bool
}

// IsSaturated lets the sweep runner apply its early-stop rule to load
// grids.
func (r Result) IsSaturated() bool { return r.Saturated }

// RunPoint simulates one load point to completion and returns its row.
func RunPoint(cfg PointConfig) Result {
	r, _ := drive(cfg, nil)
	return r
}

// The one flow shape every flow-keyed point drives (X14): a fifth of the
// spawned flows are elephants and a rat lives for 16 packets; batch sizes
// and elephant trains take loadgen's defaults.
const (
	flowElephantFraction = 0.2
	flowRatTrain         = 16
)

// drive is the one open-loop drive loop behind every measured point:
// build the system, have it pull the tenant streams (or start the flow
// generator), discard Warmup completions, record Measure more, stop — or
// let the watchdog truncate a saturated run — and audit the halted run
// (probe.Conserve), panicking with the broken equation. observe, when set,
// sees every measured completion before its request is recycled (row kinds
// that keep their own histogram); the finished system is returned for row
// kinds that read its counters.
func drive(cfg PointConfig, observe func(r *task.Request, latency time.Duration)) (Result, scenario.System) {
	if cfg.Warmup < 0 || cfg.Measure <= 0 {
		panic("experiment: need a positive measurement count")
	}
	eng := sim.New()
	rec := &stats.Recorder{}
	completions := 0
	target := cfg.Warmup + cfg.Measure

	var sys scenario.System
	var idleAtStop float64
	truncated := false

	stop := func() {
		rec.Stop(eng.Now())
		idleAtStop = sys.WorkerIdleFraction(eng.Now())
		eng.Halt()
	}

	// pool recycles request objects across the run: each request is released
	// the instant its response reaches the client (the done callback), the
	// one point where no component can still hold a live reference to it.
	pool := &task.Pool{}
	done := func(r *task.Request) {
		completions++
		if completions == cfg.Warmup {
			rec.Arm(eng.Now())
			sys.ArmWorkerTrackers(eng.Now())
			pool.Put(r)
			return
		}
		if completions > cfg.Warmup {
			lat := r.Latency(eng.Now())
			rec.RecordLatency(lat)
			if observe != nil {
				observe(r, lat)
			}
		}
		pool.Put(r)
		if completions >= target {
			stop()
		}
	}
	if cfg.Warmup == 0 {
		// Arm immediately: measurement includes cold start (tests only).
		rec.Arm(0)
	}

	sys = cfg.Factory(eng, rec, done)
	if cfg.Warmup == 0 {
		sys.ArmWorkerTrackers(0)
	}

	// gens are the arrival counters the audit sums at halt.
	var gens []*loadgen.Counters
	var fgen *loadgen.FlowGenerator
	var flows *task.FlowPool
	if fl := cfg.Flow; fl != nil {
		// Flow records are pooled like requests; records are released by
		// whichever side (generator or system) drops a flow's last
		// reference.
		flows = &task.FlowPool{}
		fgen = loadgen.NewFlow(eng, loadgen.FlowConfig{
			RPS:              cfg.OfferedRPS,
			Service:          cfg.Service,
			Flows:            fl.Flows,
			ElephantFraction: flowElephantFraction,
			RatTrain:         flowRatTrain,
			Seed:             cfg.Seed,
			Pool:             pool,
			FlowPool:         flows,
		}, sys.Inject)
		fgen.Start()
		gens = append(gens, &fgen.Counters)
	} else {
		// One stream per tenant, each stamping its requests with the
		// tenant's index and seeded apart from its siblings; a point
		// without tenants is the one-tenant case.
		streams := cfg.Tenants
		if len(streams) == 0 {
			streams = []Tenant{{RPS: cfg.OfferedRPS, Service: cfg.Service}}
		}
		// Each request leaving the system's front transmits the next.
		gs := make([]*loadgen.Generator, len(streams))
		for i, t := range streams {
			gs[i] = loadgen.New(eng, loadgen.Config{
				RPS:      t.RPS,
				Service:  t.Service,
				Keys:     cfg.Keys,
				Seed:     cfg.Seed + 7919*uint64(i),
				ClientID: uint32(i),
				Pool:     pool,
			}, sys.Inject)
			gens = append(gens, &gs[i].Counters)
		}
		src := loadgen.NewSource(gs...)
		sys.Pull(src.Pull)
		src.Pull()
	}

	maxT := cfg.MaxSimTime
	if maxT == 0 {
		// Expected run length at the offered rate, with 8x headroom for
		// saturated points, plus a floor for very small runs.
		expected := time.Duration(float64(target) / cfg.OfferedRPS * float64(time.Second))
		maxT = 8*expected + 50*time.Millisecond
	}
	eng.AtE(sim.Time(maxT), truncate, &truncated, stop, 0)
	eng.Run()

	// Every point audits its own conservation at halt.
	halt := probe.Halt{Done: uint64(completions), Pending: eng.Pending(), Pool: pool.Live(), FlowPool: -1}
	for _, g := range gens {
		halt.Generated += g.Arrivals()
	}
	if fgen != nil {
		halt.Streams, halt.FlowPool, halt.Population = 1, flows.Live(), fgen.Population()
	}
	if err := probe.Conserve(sys.Ledger(), halt); err != nil {
		panic(fmt.Sprintf("experiment: %s at %.0f rps: %v", sys.Name(), cfg.OfferedRPS, err))
	}

	now := eng.Now()
	achieved := rec.Throughput(now)
	p := stats.Point{
		OfferedRPS:         cfg.OfferedRPS,
		AchievedRPS:        achieved,
		P50:                rec.Latency.P50(),
		P99:                rec.Latency.P99(),
		Mean:               rec.Latency.Mean(),
		Max:                rec.Latency.Max(),
		Completed:          rec.Completed(),
		Dropped:            rec.Dropped(),
		Preemptions:        rec.Preemptions(),
		WorkerIdleFraction: idleAtStop,
		Saturated:          truncated || achieved < 0.97*cfg.OfferedRPS,
	}
	return Result{
		Point:      p,
		SystemName: sys.Name(),
		SimTime:    now.Duration(),
		Truncated:  truncated,
	}, sys
}

// truncate is drive's MaxSimTime watchdog: it marks the point truncated
// (recv, drive's flag) and halts the run (obj, drive's stop closure).
func truncate(recv, obj any, _ uint64) {
	*recv.(*bool) = true
	obj.(func())()
}

// Series is a labelled sweep — one curve of a figure.
type Series struct {
	Label   string
	Results []Result
}

// Figure is a reproduced paper figure: several curves over a load grid.
type Figure struct {
	ID    string
	Title string
	// XLabel / YLabel describe the plotted axes.
	XLabel, YLabel string
	Series         []Series
}

// NewFigure assembles the figure a series preset declares from its
// measured curves (the output of Run with the Plain kind). After a
// cancelled run every series holds its completed prefix.
func NewFigure(p scenario.Preset, res []runner.SeriesResult[Result]) Figure {
	f := Figure{ID: p.ID, Title: p.Title, XLabel: p.XLabel, YLabel: p.YLabel}
	for _, sr := range res {
		f.Series = append(f.Series, Series{Label: sr.Label, Results: sr.Results})
	}
	return f
}
