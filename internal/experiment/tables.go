package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/params"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
)

// TimerCostRow is one row of the §3.4.4 timer-cost table (T1).
type TimerCostRow struct {
	Operation    string
	LinuxCycles  float64
	DirectCycles float64
	LinuxTime    time.Duration
	DirectTime   time.Duration
	Reduction    float64 // fractional cost reduction, e.g. 0.93
}

// TimerCosts regenerates the §3.4.4 numbers: arming the timer drops from
// 610 to 40 cycles (93%), receiving the interrupt from 4193 to 1272 (70%).
func TimerCosts(p params.Params) []TimerCostRow {
	clk := p.HostClock
	rows := []TimerCostRow{
		{
			Operation:    "set timer",
			LinuxCycles:  params.LinuxTimer.ArmCycles,
			DirectCycles: params.DirectAPIC.ArmCycles,
		},
		{
			Operation:    "receive timer interrupt",
			LinuxCycles:  params.LinuxTimer.FireCycles,
			DirectCycles: params.DirectAPIC.FireCycles,
		},
	}
	for i := range rows {
		r := &rows[i]
		r.LinuxTime = clk.CyclesToDuration(r.LinuxCycles)
		r.DirectTime = clk.CyclesToDuration(r.DirectCycles)
		r.Reduction = 1 - r.DirectCycles/r.LinuxCycles
	}
	return rows
}

// timerTable prints T1.
func timerTable(_ context.Context, _ *runner.Runner, _ Quality, w io.Writer, _ Format) error {
	fmt.Fprintln(w, "== T1: §3.4.4 timer/interrupt costs (host clock 2.3 GHz)")
	fmt.Fprintf(w, "%-26s %12s %12s %12s %12s %10s\n",
		"operation", "linux(cyc)", "direct(cyc)", "linux", "direct", "reduction")
	for _, r := range TimerCosts(params.Default()) {
		fmt.Fprintf(w, "%-26s %12.0f %12.0f %12v %12v %9.0f%%\n",
			r.Operation, r.LinuxCycles, r.DirectCycles, r.LinuxTime, r.DirectTime, r.Reduction*100)
	}
	fmt.Fprintln(w)
	return nil
}

// IPCOverheadResult is the T2 experiment: the extra tail latency vanilla
// Shinjuku's inter-thread communication adds to minimal-work requests
// compared to single-thread run-to-completion (§2.2 item 4: ≈2 µs).
type IPCOverheadResult struct {
	ShinjukuP99 time.Duration
	RSSP99      time.Duration
	Overhead    time.Duration
}

// IPCOverhead reduces a complete Plain run of the table-ipc preset to T2.
// Both systems run far from saturation with near-zero application work
// so the path cost dominates.
func IPCOverhead(res []runner.SeriesResult[Result]) IPCOverheadResult {
	shin, rss := res[0].Results[0], res[1].Results[0]
	return IPCOverheadResult{
		ShinjukuP99: shin.P99,
		RSSP99:      rss.P99,
		Overhead:    shin.P99 - rss.P99,
	}
}

// printIPC prints T2.
func printIPC(w io.Writer, _ scenario.Preset, res []runner.SeriesResult[Result]) {
	r := IPCOverhead(res)
	fmt.Fprintf(w, "shinjuku p99 = %v, single-thread (rss) p99 = %v, overhead = %v\n\n",
		r.ShinjukuP99, r.RSSP99, r.Overhead)
}

// WorkerWaitResult is the T3 experiment: at their respective saturation
// points, Shinjuku-Offload workers running the 1 µs workload (Figure 6)
// wait for work far more than those running the 100 µs workload (Figure 5)
// — the paper measures 110% more waiting.
type WorkerWaitResult struct {
	IdleAt100us   float64
	IdleAt1us     float64
	ExtraWaitFrac float64 // (IdleAt1us - IdleAt100us) / IdleAt100us
}

// WorkerWait reduces a complete Plain run of the table-wait preset to
// T3: the Figure 5 and Figure 6 offload configurations, each at its knee
// (just below saturation).
func WorkerWait(res []runner.SeriesResult[Result]) WorkerWaitResult {
	r := WorkerWaitResult{
		IdleAt100us: res[0].Results[0].WorkerIdleFraction,
		IdleAt1us:   res[1].Results[0].WorkerIdleFraction,
	}
	if r.IdleAt100us > 0 {
		r.ExtraWaitFrac = (r.IdleAt1us - r.IdleAt100us) / r.IdleAt100us
	}
	return r
}

// printWait prints T3.
func printWait(w io.Writer, _ scenario.Preset, res []runner.SeriesResult[Result]) {
	r := WorkerWait(res)
	fmt.Fprintf(w, "idle@100µs = %.1f%%, idle@1µs = %.1f%%, extra waiting = %.0f%%\n\n",
		r.IdleAt100us*100, r.IdleAt1us*100, r.ExtraWaitFrac*100)
}

// PolicyRow is one row of the X10 experiment: the same system and workload
// under different worker-selection policies, isolating the value of the
// paper's core idea — host load feedback informing NIC decisions (§3.1).
type PolicyRow struct {
	Policy   core.Policy
	P50, P99 time.Duration
	Achieved float64
}

// PolicyRows reduces the Plain rows of the table-policy preset to X10,
// one row per policy series that completed. Round-robin ignores load
// entirely; least-outstanding balances request *counts*;
// informed-least-loaded balances remaining *work* using host feedback.
// With shallow stashes the centralized FIFO absorbs nearly all imbalance
// and the policies tie (a finding in itself); the regime in the preset —
// deep stashes, dispersive non-preemptible service times — is where the
// informed policy earns its keep.
func PolicyRows(p scenario.Preset, res []runner.SeriesResult[Result]) []PolicyRow {
	var rows []PolicyRow
	for i, sr := range res {
		if len(sr.Results) == 0 {
			break // cancelled mid-sweep: keep complete rows only
		}
		// Run built the series' system, so its policy knob parses.
		pol, _ := scenario.ParsePolicy(p.SpecFor(i).KnobsOrZero().Policy)
		r := sr.Results[0]
		rows = append(rows, PolicyRow{Policy: pol, P50: r.P50, P99: r.P99, Achieved: r.AchievedRPS})
	}
	return rows
}

// printPolicy prints X10.
func printPolicy(w io.Writer, p scenario.Preset, res []runner.SeriesResult[Result]) {
	fmt.Fprintf(w, "%-26s %12s %12s %14s\n", "policy", "p50", "p99", "achieved")
	for _, r := range PolicyRows(p, res) {
		fmt.Fprintf(w, "%-26s %12v %12v %14.0f\n", r.Policy, r.P50, r.P99, r.Achieved)
	}
	fmt.Fprintln(w)
}

// CommLatencyResult is the T4 check: the modelled one-way NIC↔host message
// latency against the paper's measured 2.56 µs.
type CommLatencyResult struct {
	Modelled time.Duration
	Paper    time.Duration
}

// CommLatency reports T4.
func CommLatency(p params.Params) CommLatencyResult {
	return CommLatencyResult{Modelled: p.NicHostOneWay, Paper: 2560 * time.Nanosecond}
}

// latencyTable prints T4.
func latencyTable(_ context.Context, _ *runner.Runner, _ Quality, w io.Writer, _ Format) error {
	fmt.Fprintln(w, "== T4: §3.3 NIC↔host one-way latency")
	r := CommLatency(params.Default())
	fmt.Fprintf(w, "modelled = %v, paper = %v\n\n", r.Modelled, r.Paper)
	return nil
}
