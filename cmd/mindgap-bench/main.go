// Command mindgap-bench regenerates every figure and in-text measurement of
// the paper's evaluation section (see DESIGN.md's experiment index) and
// prints the series to stdout, optionally as CSV.
//
// Figures and tables are declared as sweeps and executed by the parallel
// sweep runner (internal/runner): points fan out across -j workers, results
// are keyed by grid index so output is byte-identical at any parallelism,
// Ctrl-C (or -timeout) cancels between points and prints what completed,
// and -cache memoises per-point results on disk so re-renders only run
// points the cache has not seen.
//
// Usage:
//
//	mindgap-bench                    # every figure and table, full quality
//	mindgap-bench -fig 2             # one figure
//	mindgap-bench -table timer       # one table
//	mindgap-bench -quality quick     # reduced sample counts (CI-sized)
//	mindgap-bench -j 8               # up to 8 concurrent points
//	mindgap-bench -cache ~/.mindgap  # reuse already-measured points
//	mindgap-bench -timeout 2m        # stop (with partial output) after 2m
//	mindgap-bench -csv               # machine-readable output
//	mindgap-bench -plot              # ASCII charts of the tail curves
//	mindgap-bench -list              # figure/table ids and their presets
//	mindgap-bench -hypothesis all    # execute the checked-in hypothesis corpus
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"mindgap/hypotheses"
	"mindgap/internal/experiment"
	"mindgap/internal/hypothesis"
	"mindgap/internal/params"
	"mindgap/internal/runner"
	"mindgap/scenarios"
)

func main() {
	runner.PaceGC()
	os.Exit(run(os.Args, os.Stdout, os.Stderr))
}

// flowRulePreset declares both the X14 figure and its detail table.
const flowRulePreset = "figure-flowrule"

// lookup finds a command-line id in a figure or table registry.
func lookup(reg []experiment.Entry, id string) (experiment.Entry, bool) {
	for _, e := range reg {
		if e.ID == id {
			return e, true
		}
	}
	return experiment.Entry{}, false
}

// idList joins a registry's command-line ids for help and error text.
func idList(reg []experiment.Entry) string {
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return strings.Join(ids, ", ")
}

// run is main with its process edges passed in: args is os.Args and the
// result is the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "", "figure to run: "+idList(experiment.FigureIDs)+" (empty = all)")
		table    = fs.String("table", "", "table to run: "+idList(experiment.TableIDs)+" (empty = all)")
		quality  = fs.String("quality", "full", "sample counts: quick or full")
		quick    = fs.Bool("quick", false, "shorthand for -quality quick")
		csv      = fs.Bool("csv", false, "CSV output for figures")
		plot     = fs.Bool("plot", false, "ASCII chart output for figures")
		only     = fs.Bool("figs-only", false, "skip tables")
		jobs     = fs.Int("j", runtime.GOMAXPROCS(0), "max concurrently simulated points")
		timeout  = fs.Duration("timeout", 0, "overall deadline; on expiry, completed points are printed (0 = none)")
		cacheDir = fs.String("cache", "", "directory for the on-disk result cache (empty = no caching)")
		progress = fs.Bool("progress", false, "live point-completion progress on stderr")
		list     = fs.Bool("list", false, "list figure/table/hypothesis ids and their scenario presets, then exit")
		hyp      = fs.String("hypothesis", "", "hypothesis to execute: a corpus name, a spec file path, or \"all\" (prints FINDINGS; exits 1 on a FAIL verdict)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// run returns its exit code instead of exiting, so these defers flush
	// the profiles on every return below, error exits included. The heap
	// profile is registered first: it is written after the CPU profile has
	// stopped.
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
				return
			}
			runtime.GC() // flush recently-freed objects out of the heap profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
			}
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
			}
		}()
	}

	if *list {
		fmt.Fprintln(stdout, "figures (-fig ID, scenario preset in scenarios/):")
		for _, f := range experiment.FigureIDs {
			fmt.Fprintf(stdout, "  %-10s scenarios/%s.json\n", f.ID, f.Source)
		}
		fmt.Fprintln(stdout, "tables (-table ID):")
		for _, t := range experiment.TableIDs {
			fmt.Fprintf(stdout, "  %-10s %s\n", t.ID, t.Source)
		}
		fmt.Fprintln(stdout, "hypotheses (-hypothesis ID, spec in hypotheses/):")
		for _, name := range hypotheses.Names() {
			fmt.Fprintf(stdout, "  %s\n", name)
		}
		return 0
	}

	q := experiment.Full
	switch {
	case *quick || *quality == "quick":
		q = experiment.Quick
	case *quality == "full":
	default:
		fmt.Fprintf(stderr, "mindgap-bench: unknown -quality %q (want quick or full)\n", *quality)
		return 2
	}
	figure, ok := lookup(experiment.FigureIDs, *fig)
	if *fig != "" && !ok {
		fmt.Fprintf(stderr, "mindgap-bench: unknown figure %q (want one of: %s)\n", *fig, idList(experiment.FigureIDs))
		return 2
	}
	if _, ok := lookup(experiment.TableIDs, *table); *table != "" && !ok {
		fmt.Fprintf(stderr, "mindgap-bench: unknown table %q (want one of: %s)\n", *table, idList(experiment.TableIDs))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	rn := &runner.Runner{Parallelism: *jobs}
	if *cacheDir != "" {
		c, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
			return 1
		}
		rn.Cache = c
	}
	if *progress {
		rn.Progress = func(ev runner.Event) {
			note := ""
			if ev.Cached {
				note = " (cached)"
			}
			fmt.Fprintf(stderr, "[%s] %d/%d %s #%d%s\n",
				ev.Sweep, ev.Done, ev.Total, ev.Series, ev.Index, note)
		}
	}

	// interrupted reports (and remembers) whether the run was cut short.
	exitCode := 0
	interrupted := func(err error) bool {
		if err == nil {
			return false
		}
		fmt.Fprintf(stderr, "mindgap-bench: %v — results below are the completed prefix\n", err)
		exitCode = 1
		return true
	}

	// flowRule measures the X14 preset, once per invocation, as detail
	// rows: its figure and its detail table are two reductions of them.
	flowRule := sync.OnceValues(func() ([]runner.SeriesResult[experiment.FlowRuleRow], error) {
		return experiment.Run(ctx, rn, scenarios.MustLoad(flowRulePreset), q, experiment.FlowRuleDetail)
	})

	// runFigure measures one registry figure and renders it; a rendering
	// failure aborts the run.
	runFigure := func(e experiment.Entry) error {
		start := time.Now()
		p := scenarios.MustLoad(e.Source)
		var res []runner.SeriesResult[experiment.Result]
		var err error
		if e.Source == flowRulePreset {
			var rows []runner.SeriesResult[experiment.FlowRuleRow]
			rows, err = flowRule()
			res = experiment.FlowRuleResults(rows)
		} else {
			res, err = experiment.Run(ctx, rn, p, q, experiment.Plain)
		}
		interrupted(err)
		f := experiment.NewFigure(p, res)
		switch {
		case *csv:
			if err := f.WriteCSV(stdout); err != nil {
				return err
			}
		case *plot:
			f.Plot(stdout, 72, 20)
			fmt.Fprintln(stdout)
		default:
			f.Render(stdout)
			fmt.Fprintf(stdout, "   (wall time %v)\n\n", time.Since(start).Round(time.Millisecond))
		}
		return nil
	}

	runTables := func(which string) {
		p := params.Default()
		if which == "" || which == "timer" {
			fmt.Fprintln(stdout, "== T1: §3.4.4 timer/interrupt costs (host clock 2.3 GHz)")
			fmt.Fprintf(stdout, "%-26s %12s %12s %12s %12s %10s\n",
				"operation", "linux(cyc)", "direct(cyc)", "linux", "direct", "reduction")
			for _, r := range experiment.TimerCosts(p) {
				fmt.Fprintf(stdout, "%-26s %12.0f %12.0f %12v %12v %9.0f%%\n",
					r.Operation, r.LinuxCycles, r.DirectCycles, r.LinuxTime, r.DirectTime, r.Reduction*100)
			}
			fmt.Fprintln(stdout)
		}
		if which == "" || which == "ipc" {
			fmt.Fprintln(stdout, "== T2: §2.2 inter-thread communication overhead (paper: ≈2µs added tail)")
			res, err := experiment.Run(ctx, rn, scenarios.MustLoad("table-ipc"), q, experiment.Plain)
			if !interrupted(err) {
				r := experiment.IPCOverhead(res)
				fmt.Fprintf(stdout, "shinjuku p99 = %v, single-thread (rss) p99 = %v, overhead = %v\n\n",
					r.ShinjukuP99, r.RSSP99, r.Overhead)
			}
		}
		if which == "" || which == "wait" {
			fmt.Fprintln(stdout, "== T3: §4 worker wait time at saturation (paper: 1µs workload waits 110% more)")
			res, err := experiment.Run(ctx, rn, scenarios.MustLoad("table-wait"), q, experiment.Plain)
			if !interrupted(err) {
				r := experiment.WorkerWait(res)
				fmt.Fprintf(stdout, "idle@100µs = %.1f%%, idle@1µs = %.1f%%, extra waiting = %.0f%%\n\n",
					r.IdleAt100us*100, r.IdleAt1us*100, r.ExtraWaitFrac*100)
			}
		}
		if which == "" || which == "latency" {
			fmt.Fprintln(stdout, "== T4: §3.3 NIC↔host one-way latency")
			r := experiment.CommLatency(p)
			fmt.Fprintf(stdout, "modelled = %v, paper = %v\n\n", r.Modelled, r.Paper)
		}
		if which == "" || which == "policy" {
			fmt.Fprintln(stdout, "== X10: worker-selection policy ablation (bimodal, k=6, no preemption, ρ=0.75)")
			fmt.Fprintf(stdout, "%-26s %12s %12s %14s\n", "policy", "p50", "p99", "achieved")
			preset := scenarios.MustLoad("table-policy")
			res, err := experiment.Run(ctx, rn, preset, q, experiment.Plain)
			for _, r := range experiment.PolicyRows(preset, res) {
				fmt.Fprintf(stdout, "%-26s %12v %12v %14.0f\n", r.Policy, r.P50, r.P99, r.Achieved)
			}
			interrupted(err)
			fmt.Fprintln(stdout)
		}
		if which == "" || which == "dispersion" {
			fmt.Fprintln(stdout, "== X7: preemption win vs service-time dispersion (mean 10µs, ρ=0.7, 4 workers)")
			fmt.Fprintf(stdout, "%-36s %8s %16s %16s %8s\n", "workload", "cv²", "short p99 (pre)", "short p99 (rtc)", "win")
			preset := scenarios.MustLoad("table-dispersion")
			res, err := experiment.Run(ctx, rn, preset, q, experiment.ShortTail)
			for _, r := range experiment.DispersionRows(preset, res) {
				fmt.Fprintf(stdout, "%-36s %8.2f %16v %16v %7.1fx\n",
					r.Workload, r.CV2, r.PreemptShortP99, r.NoPreemptShortP99, r.Win)
			}
			interrupted(err)
			fmt.Fprintln(stdout)
		}
		if which == "" || which == "affinity" {
			fmt.Fprintln(stdout, "== X11: scheduling-affinity ablation (10% 100µs requests, 10µs slice, 8 workers)")
			res, err := experiment.Run(ctx, rn, scenarios.MustLoad("table-affinity"), q, experiment.Affinity)
			if !interrupted(err) {
				r := experiment.AffinityAblation(res)
				fmt.Fprintf(stdout, "migrations: off=%d on=%d (preemptions %d); mean: off=%v on=%v; p99: off=%v on=%v\n\n",
					r.MigrationsOff, r.MigrationsOn, r.Preemptions,
					r.MeanOff, r.MeanOn, r.P99Off, r.P99On)
			}
		}
		if which == "" || which == "attribution" {
			fmt.Fprintln(stdout, "== X13: latency attribution (per-phase share of the tail + decision audit, 450 krps)")
			res, err := experiment.Run(ctx, rn, scenarios.MustLoad("table-attribution"), q, experiment.Attributed)
			for _, sr := range res {
				for _, r := range sr.Results {
					fmt.Fprintf(stdout, "%s — p50=%v p99=%v achieved=%.0f rps\n",
						sr.Label, r.Result.P50, r.Result.P99, r.Result.AchievedRPS)
					fmt.Fprintf(stdout, "  %-12s %12s %12s %12s %10s %10s\n",
						"phase", "mean", "p50", "p99", "mean-share", "tail-share")
					for _, ph := range r.Phases {
						if ph.Mean == 0 && ph.P99 == 0 {
							continue // phase the system never enters (e.g. fabric on rss)
						}
						fmt.Fprintf(stdout, "  %-12s %12v %12v %12v %9.1f%% %9.1f%%\n",
							ph.Phase, ph.Mean, ph.P50, ph.P99, ph.MeanShare*100, ph.TailShare*100)
					}
					a := r.Audit
					fmt.Fprintf(stdout, "  decisions=%d informed=%d mis-dispatch=%.1f%% staleness(mean/p99)=%v/%v est-err=%v excess(mean/p99)=%v/%v\n\n",
						a.Decisions, a.Informed, a.MisRate*100,
						a.MeanStaleness, a.P99Staleness, a.MeanEstimateError,
						a.MeanExcess, a.P99Excess)
				}
			}
			interrupted(err)
		}
		if which == "" || which == "faults" {
			fmt.Fprintln(stdout, "== X12: fault recovery timeline (goodput and tail per phase of a faulted run)")
			for _, id := range experiment.FaultPresetIDs() {
				r, err := experiment.FaultTimeline(ctx, rn, id, q)
				if err != nil {
					fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
					exitCode = 1
					continue
				}
				fmt.Fprintf(stdout, "%s — %s @ %.0f rps\n", r.Preset, r.Label, r.OfferedRPS)
				fmt.Fprintf(stdout, "  %-10s %16s %10s %12s %12s %12s %12s\n",
					"phase", "window", "completed", "goodput", "p50", "p99", "max")
				for _, ph := range r.Phases {
					fmt.Fprintf(stdout, "  %-10s %7v–%-8v %10d %12.0f %12v %12v %12v\n",
						ph.Phase, ph.Start, ph.End, ph.Completed, ph.GoodputRPS, ph.P50, ph.P99, ph.Max)
				}
				fmt.Fprintf(stdout, "  retries=%d timeout_drops=%d degraded=%d loss_drops=%d delay_hits=%d drops=%d\n\n",
					r.Retries, r.TimeoutDrops, r.Degraded, r.LossDrops, r.DelayHits, r.RecorderDrops)
			}
		}
		if which == "" || which == "flowrule" {
			fmt.Fprintln(stdout, "== X14: flow-rule offload detail (rule-table telemetry behind the figure)")
			fmt.Fprintf(stdout, "%-34s %10s %8s %12s %10s %10s %10s %10s %10s %8s %8s\n",
				"policy", "flows", "hit", "p99", "fast", "slow", "drop", "inserted", "refused", "evicted", "thr")
			res, err := flowRule()
			for _, sr := range res {
				for _, r := range sr.Results {
					fmt.Fprintf(stdout, "%-34s %10d %7.1f%% %12v %10.0f %10.0f %10.0f %10.0f %10.0f %8.0f %8.0f\n",
						sr.Label, r.Flows, r.FastHitRate*100, r.Result.P99,
						r.FastPackets, r.SlowPackets, r.DropPackets,
						r.Insertions, r.OffloadRefused, r.LRUEvictions+r.IdleEvictions, r.Threshold)
				}
			}
			interrupted(err)
			fmt.Fprintln(stdout)
		}
		if which == "" || which == "tenants" {
			fmt.Fprintln(stdout, "== X9: multi-tenant isolation (FIFO vs strict class priority)")
			res, err := experiment.Run(ctx, rn, scenarios.MustLoad("table-tenants"), q, experiment.TenantMix)
			if !interrupted(err) {
				fmt.Fprintf(stdout, "%-22s %-10s %12s %12s %12s %10s\n", "tenant", "sched", "p50", "p99", "mean", "completed")
				for _, mix := range experiment.Rows(res) {
					for _, tr := range mix {
						fmt.Fprintf(stdout, "%-22s %-10s %12v %12v %12v %10d\n",
							tr.Tenant.Name, tr.Sched, tr.P50, tr.P99, tr.Mean, tr.Completed)
					}
				}
				fmt.Fprintln(stdout)
			}
		}
	}

	// runHypotheses executes checked-in or on-disk hypotheses through the
	// same cached runner as the figures and prints their FINDINGS. A FAIL
	// verdict — a claim the simulator no longer supports — exits nonzero;
	// a hypothesis that does not load aborts the run.
	runHypotheses := func(which string) error {
		names := []string{which}
		if which == "all" {
			names = hypotheses.Names()
		}
		for _, name := range names {
			s, err := scenarios.LoadArg(name, hypothesis.Decode, hypotheses.Load)
			if err == nil {
				err = s.Validate()
			}
			if err != nil {
				return err
			}
			rep, err := hypothesis.Run(ctx, rn, s, q)
			if err != nil {
				fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
				exitCode = 1
				continue
			}
			stdout.Write(rep.Render())
			if !rep.Pass {
				exitCode = 1
			}
		}
		return nil
	}

	switch {
	case *hyp != "":
		if err := runHypotheses(*hyp); err != nil {
			fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
			return 2
		}
	case *fig != "":
		if err := runFigure(figure); err != nil {
			fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
			return 1
		}
	case *table != "":
		runTables(*table)
	default:
		for _, e := range experiment.FigureIDs {
			if err := runFigure(e); err != nil {
				fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
				return 1
			}
		}
		if !*only {
			runTables("")
		}
	}

	if rn.Cache != nil {
		hits, misses := rn.Cache.Stats()
		fmt.Fprintf(stderr, "mindgap-bench: cache %s: %d hits, %d misses\n",
			rn.Cache.Dir(), hits, misses)
	}
	return exitCode
}
