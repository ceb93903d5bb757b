// Benchmarks regenerating the experiments of the paper's evaluation — the
// testing.B targets named in DESIGN.md's experiment index. Each iteration
// runs the full figure/table harness at a reduced (benchmark) quality;
// reported custom metrics carry the reproduction's headline numbers so
// `go test -bench .` doubles as a results summary. Host time is not
// measured here: that is benchmark/run.sh's job.
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
	cfg, err := experiment.PointConfigFor(scenario.Spec{
		System:   "idealnic",
		Workload: bimodal.String(),
		Knobs: &scenario.Knobs{
			Workers: 4, Outstanding: 4, Slice: scenario.Duration(10 * time.Microsecond),
			DirectInterrupts: true,
		},
	}, benchQ)
	if err != nil {
		b.Fatal(err)
	}
	cfg.OfferedRPS = 400_000
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
