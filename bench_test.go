// Benchmarks regenerating every experiment of the paper's evaluation — one
// testing.B target per entry in DESIGN.md's experiment index. Each
// iteration runs the full figure/table harness at a reduced (benchmark)
// quality; reported custom metrics carry the reproduction's headline
// numbers so `go test -bench .` doubles as a results summary.
package mindgap

import (
	"context"
	"testing"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/dist"
	"mindgap/internal/experiment"
	"mindgap/internal/fabric"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/systems/shinjuku"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
	"mindgap/scenarios"
)

// benchQ keeps benchmark iterations affordable while preserving shapes.
var benchQ = Quality{Warmup: 1_000, Measure: 6_000, Seed: 7}

// bimodal is Figure 2's workload (§4.1): 99.5% 5 µs, 0.5% 100 µs.
var bimodal = dist.Bimodal{P1: 0.995, D1: 5 * time.Microsecond, D2: 100 * time.Microsecond}

// benchRun measures a checked-in preset as rows of kind k at benchQ on
// the default parallel runner.
func benchRun[T any](b *testing.B, presetID string, k experiment.Kind[T]) (scenario.Preset, []runner.SeriesResult[T]) {
	b.Helper()
	p := scenarios.MustLoad(presetID)
	res, err := experiment.Run(context.Background(), nil, p, benchQ, k)
	if err != nil {
		b.Fatal(err)
	}
	return p, res
}

// benchFigure measures a figure preset at benchQ.
func benchFigure(b *testing.B, presetID string) Figure {
	b.Helper()
	return experiment.NewFigure(benchRun(b, presetID, experiment.Plain))
}

// benchPoint compiles an inline system spec on the Figure 2 workload at
// 400 kRPS and benchQ.
func benchPoint(b *testing.B, system string, k scenario.Knobs) experiment.PointConfig {
	b.Helper()
	cfg, err := experiment.PointConfigFor(scenario.Spec{
		System: system, Knobs: &k, Workload: bimodal.String(),
	}, benchQ)
	if err != nil {
		b.Fatal(err)
	}
	cfg.OfferedRPS = 400_000
	return cfg
}

// figure2Offload is the Figure 2 offload configuration.
var figure2Offload = scenario.Knobs{Workers: 4, Outstanding: 4, Slice: scenario.Duration(10 * time.Microsecond)}

// F2 — Figure 2: bimodal tail latency, Shinjuku (3 workers) vs
// Shinjuku-Offload (4 workers).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "figure2")
		b.ReportMetric(f.Series[0].SaturationPoint(), "offload_sat_rps")
		b.ReportMetric(f.Series[1].SaturationPoint(), "shinjuku_sat_rps")
	}
}

// F3 — Figure 3: throughput vs outstanding requests (queuing optimization).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "figure3")
		w4 := f.Series[1]
		gain := w4.Results[4].AchievedRPS/w4.Results[0].AchievedRPS - 1
		b.ReportMetric(gain*100, "k1→k5_gain_%")
		b.ReportMetric(w4.PeakThroughput(), "plateau_rps")
	}
}

// F4 — Figure 4: fixed 5µs, no preemption.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "figure4")
		b.ReportMetric(f.Series[0].SaturationPoint(), "offload_sat_rps")
		b.ReportMetric(f.Series[1].SaturationPoint(), "shinjuku_sat_rps")
	}
}

// F5 — Figure 5: fixed 100µs, 15/16 workers.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "figure5")
		b.ReportMetric(f.Series[0].SaturationPoint(), "offload_sat_rps")
		b.ReportMetric(f.Series[1].SaturationPoint(), "shinjuku_sat_rps")
	}
}

// F6 — Figure 6: fixed 1µs, 15/16 workers — the crossover where the ARM
// dispatcher bottlenecks the offload.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "figure6")
		b.ReportMetric(f.Series[0].PeakThroughput(), "offload_peak_rps")
		b.ReportMetric(f.Series[1].PeakThroughput(), "shinjuku_peak_rps")
	}
}

// T1 — §3.4.4 timer/interrupt cycle costs.
func BenchmarkTimerCosts(b *testing.B) {
	p := params.Default()
	var rows []experiment.TimerCostRow
	for i := 0; i < b.N; i++ {
		rows = experiment.TimerCosts(p)
	}
	b.ReportMetric(rows[0].Reduction*100, "set_reduction_%")
	b.ReportMetric(rows[1].Reduction*100, "fire_reduction_%")
}

// T2 — §2.2 inter-thread communication tail overhead (paper ≈2µs).
func BenchmarkInterThreadOverhead(b *testing.B) {
	var r experiment.IPCOverheadResult
	for i := 0; i < b.N; i++ {
		_, res := benchRun(b, "table-ipc", experiment.Plain)
		r = experiment.IPCOverhead(res)
	}
	b.ReportMetric(float64(r.Overhead.Nanoseconds()), "overhead_ns")
}

// T3 — §4 worker wait time at saturation, 100µs vs 1µs workloads.
func BenchmarkWorkerWait(b *testing.B) {
	var r experiment.WorkerWaitResult
	for i := 0; i < b.N; i++ {
		_, res := benchRun(b, "table-wait", experiment.Plain)
		r = experiment.WorkerWait(res)
	}
	b.ReportMetric(r.IdleAt100us*100, "idle@100µs_%")
	b.ReportMetric(r.IdleAt1us*100, "idle@1µs_%")
}

// T4 — §3.3 NIC↔host one-way latency through the fabric model.
func BenchmarkNicHostLatency(b *testing.B) {
	p := params.Default()
	var measured time.Duration
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		link := fabric.NewLink(eng, "nic→host", fabric.LinkConfig{Latency: p.NicHostOneWay})
		var at sim.Time
		link.Send(p.ControlFrameBytes, func() { at = eng.Now() })
		eng.Run()
		measured = at.Duration()
	}
	b.ReportMetric(float64(measured.Nanoseconds()), "one_way_ns")
}

// X1 — §5.1(2) CXL ablation on the Figure 6 configuration.
func BenchmarkAblationCXL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "figure6-cxl")
		b.ReportMetric(f.Series[0].PeakThroughput(), "cxl_peak_rps")
	}
}

// X2 — §5.1(1) line-rate scheduler ablation.
func BenchmarkAblationLineRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "figure6-linerate")
		b.ReportMetric(f.Series[0].PeakThroughput(), "linerate_peak_rps")
		b.ReportMetric(f.Series[1].PeakThroughput(), "ideal_peak_rps")
	}
}

// X3 — §5.1(3) direct NIC→core interrupts on the Figure 2 workload.
func BenchmarkAblationDirectInterrupt(b *testing.B) {
	k := figure2Offload
	k.DirectInterrupts = true
	cfg := benchPoint(b, "idealnic", k)
	for i := 0; i < b.N; i++ {
		direct := experiment.RunPoint(cfg)
		b.ReportMetric(float64(direct.P99.Nanoseconds()), "directirq_p99_ns")
	}
}

// X5 — Figure 3 with DPDK burst polling at the queue-manager core: shows
// the k=1 penalty the paper's prototype saw at 16 workers.
func BenchmarkAblationBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "figure3-burst")
		w16 := f.Series[0]
		gain := w16.Results[2].AchievedRPS/w16.Results[0].AchievedRPS - 1
		b.ReportMetric(gain*100, "16w_k1→k3_gain_%")
	}
}

// X6 — §5.2 DDIO-to-L1: latency saved by placing packets directly in the
// worker's L1 (safe because outstanding requests per core are bounded).
func BenchmarkAblationDDIO(b *testing.B) {
	p := params.Default()
	var with, without experiment.Result
	for i := 0; i < b.N; i++ {
		mk := func(ddio bool) experiment.Result {
			return experiment.RunPoint(experiment.PointConfig{
				Factory: func(eng *sim.Engine, rec *stats.Recorder, done func(*task.Request)) experiment.System {
					return core.NewOffload(eng, core.OffloadConfig{
						P: p, Workers: 4, Outstanding: 4,
						Slice: 10 * time.Microsecond, DDIOToL1: ddio,
					}, &probe.Probe{Rec: rec}, done)
				},
				Service:    bimodal,
				OfferedRPS: 400_000,
				Warmup:     benchQ.Warmup, Measure: benchQ.Measure, Seed: benchQ.Seed,
			})
		}
		with, without = mk(true), mk(false)
	}
	b.ReportMetric(float64(with.P50.Nanoseconds()), "ddio_p50_ns")
	b.ReportMetric(float64(without.P50.Nanoseconds()), "stock_p50_ns")
}

// X7 — preemption win vs service-time dispersion (extension): the theory
// the paper cites predicts the win grows with CV².
func BenchmarkDispersionSensitivity(b *testing.B) {
	var rows []experiment.DispersionRow
	for i := 0; i < b.N; i++ {
		rows = experiment.DispersionRows(benchRun(b, "table-dispersion", experiment.ShortTail))
	}
	b.ReportMetric(rows[0].Win, "fixed_win_x")
	b.ReportMetric(rows[len(rows)-1].Win, "bimodal_win_x")
}

// X8 — §1 multi-socket DDIO locality (extension): a host dispatcher that
// ignores DDIO placement sends packets to remote-socket workers; the
// informed NIC DMAs into the chosen worker's socket and avoids the fetch.
func BenchmarkAblationNUMA(b *testing.B) {
	p := params.Default()
	var one, two experiment.Result
	for i := 0; i < b.N; i++ {
		mk := func(sockets int) experiment.Result {
			return experiment.RunPoint(experiment.PointConfig{
				Factory: func(eng *sim.Engine, rec *stats.Recorder, done func(*task.Request)) experiment.System {
					return shinjuku.New(eng, shinjuku.Config{
						P: p, Workers: 4, Slice: 10 * time.Microsecond, Sockets: sockets,
					}, &probe.Probe{Rec: rec}, done)
				},
				Service:    bimodal,
				OfferedRPS: 400_000,
				Warmup:     benchQ.Warmup, Measure: benchQ.Measure, Seed: benchQ.Seed,
			})
		}
		one, two = mk(1), mk(2)
	}
	b.ReportMetric(float64(one.Mean.Nanoseconds()), "1socket_mean_ns")
	b.ReportMetric(float64(two.Mean.Nanoseconds()), "2socket_mean_ns")
}

// X9 — co-located latency classes (extension): strict-priority classes at
// the NIC scheduler protect the critical tenant's tail while the batch
// tenant keeps completing.
func BenchmarkMultiTenant(b *testing.B) {
	var mixes [][]experiment.TenantResult
	for i := 0; i < b.N; i++ {
		_, res := benchRun(b, "table-tenants", experiment.TenantMix)
		mixes = experiment.Rows(res)
	}
	b.ReportMetric(float64(mixes[0][0].P99.Nanoseconds()), "fifo_critical_p99_ns")
	b.ReportMetric(float64(mixes[1][0].P99.Nanoseconds()), "prio_critical_p99_ns")
}

// X10 — worker-selection policy ablation (extension): what the "informed"
// in informed scheduling buys, isolated from everything else.
func BenchmarkPolicyAblation(b *testing.B) {
	var rows []experiment.PolicyRow
	for i := 0; i < b.N; i++ {
		rows = experiment.PolicyRows(benchRun(b, "table-policy", experiment.Plain))
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.P99.Nanoseconds()), r.Policy.String()+"_p99_ns")
	}
}

// X4 — baseline landscape on the bimodal workload.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchFigure(b, "baselines")
		for _, s := range f.Series {
			_ = s.SaturationPoint()
		}
		b.ReportMetric(float64(len(f.Series)), "systems")
	}
}

// BenchmarkPointThroughput measures harness throughput on the canonical
// Figure 2 point: full sweep points per wall second, wall nanoseconds per
// simulated request, and allocations per point. These three metrics are
// the tracked performance baseline — cmd/mindgap-perf compares them
// against the checked-in BENCH.json and flags >20% regressions in CI.
func BenchmarkPointThroughput(b *testing.B) {
	cfg := benchPoint(b, "offload", figure2Offload)
	b.ReportAllocs()
	b.ResetTimer()
	var completed int64
	for i := 0; i < b.N; i++ {
		completed = experiment.RunPoint(cfg).Completed
	}
	reqs := float64(completed) * float64(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/request")
}

// BenchmarkAttributionOverhead measures the same point with a latency
// attribution collector attached (internal/attr): the delta against
// BenchmarkPointThroughput is the cost of full phase decomposition plus
// per-dispatch ground-truth audits.
func BenchmarkAttributionOverhead(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	var rows []experiment.AttributionRow
	for i := 0; i < b.N; i++ {
		_, res := benchRun(b, "table-attribution", experiment.Attributed)
		rows = experiment.Rows(res)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points/sec")
	if len(rows) > 0 {
		b.ReportMetric(rows[0].Audit.MisRate*100, "mis_dispatch_%")
	}
}

// engineBenchDelays spreads re-arm deadlines across the timing wheel's
// levels — immediate, near (level 0), mid-level, and far enough to land
// in upper levels (12 ms is level 3 of 11).
var engineBenchDelays = [...]time.Duration{
	0,
	200 * time.Nanosecond,
	3 * time.Microsecond,
	50 * time.Microsecond,
	800 * time.Microsecond,
	12 * time.Millisecond,
}

// engineBenchChain is one self-rescheduling event chain; left is shared
// across chains so the run fires exactly b.N events.
type engineBenchChain struct {
	eng  *sim.Engine
	left *int
	i    int
}

func engineBenchFire(recv, _ any, _ uint64) {
	c := recv.(*engineBenchChain)
	if *c.left <= 0 {
		return
	}
	*c.left--
	d := engineBenchDelays[c.i%len(engineBenchDelays)]
	c.i++
	c.eng.AfterE(d, engineBenchFire, c, nil, 0)
}

// BenchmarkEngineSchedule measures the raw event engine: the cost of one
// schedule+fire cycle through the hierarchical timing wheel, with 64
// concurrent chains whose deadlines rotate across wheel levels. allocs/op
// is allocations per event — near zero once the wheel and free list are
// warm. Tracked by cmd/mindgap-perf against BENCH.json.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := sim.New()
	left := b.N
	chains := 64
	if chains > b.N {
		chains = b.N
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < chains; c++ {
		ch := &engineBenchChain{eng: eng, left: &left, i: c}
		left--
		eng.AfterE(engineBenchDelays[c%len(engineBenchDelays)], engineBenchFire, ch, nil, 0)
	}
	eng.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkRequestPool measures the request pool's steady-state recycle
// path with a rolling window of live requests (mimicking in-flight
// turnover): every Get after warm-up is a free-list pop, so allocs/op
// must be ~0. Tracked by cmd/mindgap-perf against BENCH.json.
func BenchmarkRequestPool(b *testing.B) {
	var pool task.Pool
	const window = 256
	ring := make([]*task.Request, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		if r := ring[slot]; r != nil {
			pool.Put(r)
		}
		ring[slot] = pool.Get(uint64(i), sim.Time(i), time.Microsecond)
	}
	b.ReportMetric(float64(pool.HighWater()), "live_highwater")
}

// BenchmarkFlowRulePoint measures one X14 flow-rule offload point: the
// figure-flowrule threshold-16 configuration at its 4096-flow anchor
// population, flow-keyed generator and all. allocs/op covers the full
// point — flow records and rule-table state are pooled, so the number
// must stay flat as Measure grows. Tracked by cmd/mindgap-perf against
// BENCH.json; fast_hit_% is the headline steering split.
func BenchmarkFlowRulePoint(b *testing.B) {
	sp := scenario.Spec{
		System:   "flowrule",
		Workload: "fixed:170ns",
		Flow: &scenario.FlowSpec{
			Flows:            4096,
			ElephantFraction: 0.2,
			RatTrain:         16,
		},
		Knobs: &scenario.Knobs{
			Workers:          1,
			RuleCapacity:     1536,
			InsertRate:       20_000,
			InsertQueue:      256,
			OffloadThreshold: 16,
			IdleTimeout:      scenario.Duration(50 * time.Millisecond),
			SlowQueue:        512,
		},
	}
	if err := sp.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var hit float64
	var completed int64
	for i := 0; i < b.N; i++ {
		reg := telemetry.NewRegistry()
		f, err := scenario.BuildWith(sp, scenario.Options{Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		r := experiment.RunPoint(experiment.PointConfig{
			Factory:    f,
			Service:    dist.Fixed{D: 170 * time.Nanosecond},
			Flow:       sp.Flow,
			OfferedRPS: 400_000,
			Warmup:     benchQ.Warmup,
			Measure:    benchQ.Measure,
			Seed:       benchQ.Seed,
		})
		completed = r.Completed
		fast, _ := reg.GaugeValue("flowrule/fast_packets")
		slow, _ := reg.GaugeValue("flowrule/slow_packets")
		drop, _ := reg.GaugeValue("flowrule/drop_packets")
		if total := fast + slow + drop; total > 0 {
			hit = fast / total
		}
	}
	reqs := float64(completed) * float64(b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "points/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/request")
	b.ReportMetric(hit*100, "fast_hit_%")
}

// BenchmarkSimulatorEventRate measures raw simulator throughput: simulated
// request completions per wall second on the Figure 2 configuration.
func BenchmarkSimulatorEventRate(b *testing.B) {
	cfg := benchPoint(b, "offload", figure2Offload)
	cfg.Warmup = 500
	cfg.Measure = b.N // scale the measured window with b.N
	if cfg.Measure < 1000 {
		cfg.Measure = 1000
	}
	b.ResetTimer()
	r := experiment.RunPoint(cfg)
	b.ReportMetric(float64(r.Completed), "requests")
}

// X11 — §3.1 scheduling affinity (extension): preferring a preempted
// request's previous worker halves cross-core context migrations.
func BenchmarkAblationAffinity(b *testing.B) {
	var r experiment.AffinityResult
	for i := 0; i < b.N; i++ {
		_, res := benchRun(b, "table-affinity", experiment.Affinity)
		r = experiment.AffinityAblation(res)
	}
	b.ReportMetric(float64(r.MigrationsOff), "migrations_off")
	b.ReportMetric(float64(r.MigrationsOn), "migrations_on")
}
