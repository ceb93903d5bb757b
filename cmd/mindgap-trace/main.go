// Command mindgap-trace runs a short traced simulation (Shinjuku-Offload
// by default) and prints complete request lifecycles — a debugging lens
// into the scheduler: arrival, NIC ingress, queue entry, dispatch, worker
// start, preemptions, completion, and client response, each with its
// simulated timestamp.
//
// The traced configuration starts from a scenario preset (the checked-in
// scenarios/trace-default.json unless -scenario names another) and any
// -workers/-outstanding/-slice/-dist/-rps flags override that preset's
// knobs. The spec is compiled and measured by internal/experiment like
// any other point (no warm-up, 500 completions) — flow populations,
// tenant mixes and keyed workloads trace under the generator the figures
// use — with the tracer and collector attached as registry observers;
// every registered system reports the same lifecycle stream through its
// probe, so every one can be traced and attributed (-attr).
//
// The -format flag selects the output: "text" (default) prints per-request
// lifecycles, "chrome" emits Chrome trace-event JSON that opens directly
// in ui.perfetto.dev or chrome://tracing (one track per worker core, one
// async span per request), and "json" dumps the raw event stream as a
// JSON array.
//
// Usage:
//
//	mindgap-trace                      # trace 5 requests on the default mix
//	mindgap-trace -n 3 -dist fixed:30µs -slice 10µs -show preempted
//	mindgap-trace -scenario my.json    # trace a scenario file's first series
//	mindgap-trace -scenario table-ipc -attr     # a baseline: vanilla Shinjuku
//	mindgap-trace -format chrome > trace.json   # then open ui.perfetto.dev
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/experiment"
	"mindgap/internal/scenario"
	"mindgap/internal/trace"
	"mindgap/scenarios"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("mindgap-trace: %v", err)
	}
}

// run is the whole command: args are the flags, every byte of output
// goes to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mindgap-trace", flag.ExitOnError)
	var (
		n           = fs.Int("n", 5, "number of request lifecycles to print")
		scenarioArg = fs.String("scenario", "trace-default", "scenario file or embedded preset name; its first series is traced")
		workers     = fs.Int("workers", 2, "override: worker cores")
		k           = fs.Int("outstanding", 2, "override: per-worker outstanding limit")
		slice       = fs.Duration("slice", 10*time.Microsecond, "override: preemption quantum")
		distSpec    = fs.String("dist", "bimodal:0.8:3µs:40µs", "override: service-time distribution")
		rps         = fs.Float64("rps", 200_000, "override: offered load")
		show        = fs.String("show", "any", "which lifecycles: any, preempted")
		format      = fs.String("format", "text", "output format: text, chrome (Perfetto/chrome://tracing), json")
		attrFlag    = fs.Bool("attr", false, "attach the latency-attribution collector: text gains a phase waterfall + decision audit summary; chrome gains per-phase slices and audit counter tracks")
	)
	fs.Parse(args)
	switch *format {
	case "text", "chrome", "json":
	default:
		return fmt.Errorf("unknown -format %q (want text, chrome, or json)", *format)
	}

	sp, err := traceSpec(*scenarioArg)
	if err != nil {
		return err
	}
	// Explicitly-set flags override the preset's knobs (traceSpec
	// guarantees sp.Knobs is non-nil).
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers":
			sp.Knobs.Workers = *workers
		case "outstanding":
			sp.Knobs.Outstanding = *k
		case "slice":
			sp.Knobs.Slice = scenario.Duration(*slice)
		case "dist":
			sp.Workload = *distSpec
		case "rps":
			sp.Load = &scenario.LoadSpec{RPS: *rps}
		}
	})
	if err := sp.Validate(); err != nil {
		return err
	}

	buf := trace.New(0)
	opts := scenario.Options{Tracer: buf}
	var col *attr.Collector
	if *attrFlag {
		col = attr.New(attr.Config{KeepTimelines: true, AuditSamples: 4096})
		opts.Attr = col
	}
	cfg, err := tracedPoint(sp, opts)
	if err != nil {
		return err
	}
	experiment.RunPoint(cfg)

	if err := buf.ValidateAll(); err != nil {
		return fmt.Errorf("causality violation: %v", err)
	}

	switch *format {
	case "chrome":
		return trace.WriteChromeWith(stdout, buf, col.ChromeEvents())
	case "json":
		return trace.WriteJSON(stdout, buf)
	}

	printed := 0
	for _, id := range buf.Requests() {
		if printed >= *n {
			break
		}
		lc := buf.Lifecycle(id)
		if len(lc) == 0 || lc[len(lc)-1].Kind != trace.Respond {
			continue // still in flight at halt
		}
		if *show == "preempted" {
			preempted := false
			for _, e := range lc {
				if e.Kind == trace.Preempt {
					preempted = true
				}
			}
			if !preempted {
				continue
			}
		}
		fmt.Fprintf(stdout, "request %d (%d events, latency %v):\n", id,
			len(lc), lc[len(lc)-1].At.Sub(lc[0].At))
		fmt.Fprint(stdout, indent(buf.Format(id)))
		printed++
	}
	if printed == 0 {
		fmt.Fprintln(stdout, "no matching lifecycles; try -show any or a longer run")
	}
	fmt.Fprintf(stdout, "traced %d events across %d requests (%d truncated)\n",
		buf.Len(), len(buf.Requests()), buf.Truncated())
	if col != nil {
		printAttribution(stdout, col)
	}
	return nil
}

// printAttribution renders the collector's waterfall and audit summary
// after the lifecycle listing.
func printAttribution(w io.Writer, col *attr.Collector) {
	fmt.Fprintf(w, "\nlatency attribution (%d completed requests):\n", col.Completed())
	fmt.Fprintf(w, "  %-12s %12s %12s %12s %10s %10s\n",
		"phase", "mean", "p50", "p99", "mean-share", "tail-share")
	for _, ps := range col.PhaseStats() {
		if ps.Mean == 0 && ps.P99 == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %12v %12v %12v %9.1f%% %9.1f%%\n",
			ps.Phase, ps.Mean, ps.P50, ps.P99, ps.MeanShare*100, ps.TailShare*100)
	}
	a := col.AuditSummary()
	fmt.Fprintf(w, "decision audit: decisions=%d informed=%d mis-dispatch=%.1f%% staleness(mean/p99)=%v/%v excess(mean/p99)=%v/%v\n",
		a.Decisions, a.Informed, a.MisRate*100,
		a.MeanStaleness, a.P99Staleness, a.MeanExcess, a.P99Excess)
	if tail := col.Tail(); len(tail) > 0 {
		fmt.Fprintf(w, "slowest %d requests:\n", len(tail))
		for _, t := range tail {
			fmt.Fprintf(w, "  req %-6d total=%-10v", t.ReqID, t.Total)
			for p := attr.Phase(0); p < attr.PhaseCount; p++ {
				if d := t.Phases[p]; d > 0 {
					fmt.Fprintf(w, " %s=%v", p, d)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += "  " + s[start:i+1]
			start = i + 1
		}
	}
	return out
}

// tracedPoint compiles sp into the point the command measures: the
// spec's own generator, keys and tenants, its system built with the
// observers in o attached, no warm-up and 500 recorded completions at
// the spec's one offered rate.
func tracedPoint(sp scenario.Spec, o scenario.Options) (experiment.PointConfig, error) {
	cfg, err := experiment.PointConfigFor(sp, experiment.Quality{})
	if err != nil {
		return cfg, err
	}
	if cfg.Factory, err = scenario.BuildWith(sp, o); err != nil {
		return cfg, err
	}
	loads, err := experiment.SpecLoads(sp)
	if err != nil {
		return cfg, err
	}
	if len(loads) != 1 || loads[0] <= 0 {
		return cfg, fmt.Errorf("%s scenario needs a single offered rate (pass -rps)", sp.System)
	}
	cfg.OfferedRPS = loads[0]
	cfg.Warmup, cfg.Measure = 0, 500
	return cfg, nil
}

// traceSpec resolves -scenario (file path or embedded preset name) and
// returns its first series' spec, with Knobs guaranteed non-nil so flag
// overrides can write through it.
func traceSpec(arg string) (scenario.Spec, error) {
	p, err := scenarios.LoadArg(arg, scenario.DecodeAny, scenarios.Load)
	if err != nil {
		return scenario.Spec{}, err
	}
	if err := p.Validate(); err != nil {
		return scenario.Spec{}, err
	}
	if len(p.Series) == 0 {
		return scenario.Spec{}, fmt.Errorf("scenario %q has no series to trace", p.ID)
	}
	sp := p.SpecFor(0)
	if sp.Knobs == nil {
		sp.Knobs = &scenario.Knobs{}
	}
	return sp, nil
}
