// Command mindgap-sim measures, replicates or traces one simulated
// operating point, or renders a whole scenario preset.
//
// The point is one scenario spec: the first series of -scenario (a preset
// or single-spec file, or an embedded preset name) or, without it,
// offload with 4 workers, k = 4, a 10µs slice, bimodal:0.995:5µs:100µs
// and 400k rps. -system (which first drops the knobs the new system does
// not accept), -set name=value (any knob of the scenario schema, the
// value a JSON literal or a bare string), -dist, -rps and -zipf-* override
// it. The spec is measured once, across seeds (-replicates, -seeds; error
// bars), or traced (-trace text|chrome|json: no warm-up, 500 completions,
// each request's lifecycle, -attr adding the latency attribution).
// -scenario alone renders every series, as mindgap-bench does. Stdout is
// deterministic; wall times go to stderr.
//
// Usage:
//
//	mindgap-sim -system shinjuku -set workers=3 -rps 300000
//	mindgap-sim -scenario figure6-cxl -rps 400000   # its calibrated series
//	mindgap-sim -set directirq=true -set policy=informed-least-loaded
//	mindgap-sim -replicates 5 -j 5              # error bars across seeds 7..11
//	mindgap-sim -list-systems                   # registry names, docs, read sets
//	mindgap-sim -scenario figure2 -quality quick -csv
//	mindgap-sim -trace text -attr -scenario trace-default
//	mindgap-sim -trace chrome > trace.json      # then open ui.perfetto.dev
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/experiment"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/trace"
	"mindgap/scenarios"
)

func main() {
	runner.PaceGC()
	os.Exit(run(os.Args, os.Stdout, os.Stderr))
}

// modal names the modes each mode-bound flag applies in; given in any
// other mode, the flag exits 2 instead of being ignored.
var modal = map[string]string{
	"csv": "render", "n": "trace", "show": "trace", "attr": "trace", "replicates": "point", "seeds": "point",
	"warmup": "render point", "measure": "render point", "seed": "render point",
	"quality": "render point", "j": "render point", "timeout": "render point", "cache": "render point",
}

// run is main with its process edges passed in: args is os.Args and the
// result is the exit code (2 for a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sets []string
	fs.Func("set", "override one knob, name=value (repeatable; names as in scenario files, see -list-systems)", func(s string) error {
		sets = append(sets, s)
		return nil
	})
	var (
		system      = fs.String("system", "", "override: system registry name (see -list-systems)")
		distSpec    = fs.String("dist", "", "override: service-time distribution")
		rps         = fs.Float64("rps", 0, "override: offered load")
		zipfN       = fs.Int("zipf-keys", 0, "override: key-space size for zipf keys (0 = no keys)")
		zipfS       = fs.Float64("zipf-skew", 0.99, "override: zipf skew")
		warmup      = fs.Int("warmup", 20_000, "warmup completions to discard")
		measure     = fs.Int("measure", 100_000, "completions to measure")
		seed        = fs.Uint64("seed", 7, "workload seed")
		replicates  = fs.Int("replicates", 0, "measure across this many consecutive seeds starting at -seed (0 = single run)")
		seedList    = fs.String("seeds", "", "comma-separated explicit seed list (overrides -replicates)")
		traceFmt    = fs.String("trace", "", "trace the point instead: text, chrome (Perfetto/chrome://tracing) or json")
		n           = fs.Int("n", 5, "trace: number of request lifecycles to print")
		show        = fs.String("show", "any", "trace: which lifecycles, any or preempted")
		attrFlag    = fs.Bool("attr", false, "trace: attach the latency-attribution collector (text: phase waterfall and decision audit; chrome: per-phase slices and audit counters)")
		jobs        = fs.Int("j", runtime.GOMAXPROCS(0), "max concurrently simulated points")
		timeout     = fs.Duration("timeout", 0, "deadline; points completed by then are still printed (0 = none)")
		cacheDir    = fs.String("cache", "", "directory for the on-disk result cache (empty = no caching)")
		scenarioArg = fs.String("scenario", "", "scenario file (preset or single spec JSON) or embedded preset name")
		quality     = fs.String("quality", "", "sample counts: quick or full (default: -warmup/-measure/-seed)")
		csv         = fs.Bool("csv", false, "render: CSV output")
		listSystems = fs.Bool("list-systems", false, "print the system registry and exit")
	)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "mindgap-sim: %v\n", err)
		return code
	}

	if *listSystems {
		fmt.Fprintln(stdout, "registered systems (build any of them with -system or a scenario file):")
		for _, b := range scenario.Systems() {
			fmt.Fprintf(stdout, "  %-10s %s\n", b.Name, b.Doc)
			fmt.Fprintf(stdout, "  %-10s reads: %s\n", "", strings.Join(b.Reads, ", "))
		}
		fmt.Fprintln(stdout, "\nembedded presets (run with -scenario <name>):")
		fmt.Fprintf(stdout, "  %s\n", strings.Join(scenarios.Names(), ", "))
		return 0
	}

	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	mode := "point"
	switch {
	case given["trace"]:
		mode = "trace"
	case *scenarioArg != "" && !slices.ContainsFunc([]string{"system", "set", "dist", "rps",
		"zipf-keys", "zipf-skew", "replicates", "seeds"}, func(f string) bool { return given[f] }):
		mode = "render"
	}
	var usage error
	fs.Visit(func(f *flag.Flag) {
		if m, ok := modal[f.Name]; ok && !strings.Contains(m, mode) && usage == nil {
			usage = fmt.Errorf("-%s does not apply in %s mode", f.Name, mode)
		}
	})
	switch {
	case mode == "trace" && *traceFmt != "text" && *traceFmt != "chrome" && *traceFmt != "json":
		usage = fmt.Errorf("unknown -trace %q (want text, chrome or json)", *traceFmt)
	case *show != "any" && *show != "preempted":
		usage = fmt.Errorf("unknown -show %q (want any or preempted)", *show)
	}
	if usage != nil {
		return fail(2, usage)
	}

	q, ok := experiment.Qualities[*quality]
	switch {
	case *quality == "":
		q = experiment.Quality{Warmup: *warmup, Measure: *measure, Seed: *seed}
	case !ok:
		return fail(2, fmt.Errorf("unknown -quality %q (want quick or full)", *quality))
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
			return fail(1, err)
		}
		rn.Cache = c
	}

	sp := scenario.Spec{
		System:   "offload",
		Knobs:    &scenario.Knobs{Workers: 4, Outstanding: 4, Slice: scenario.Duration(10 * time.Microsecond)},
		Workload: "bimodal:0.995:5µs:100µs",
		Load:     &scenario.LoadSpec{RPS: 400_000},
	}
	if *scenarioArg != "" {
		p, err := scenarios.LoadArg(*scenarioArg, scenario.DecodeAny, scenarios.Load)
		if err == nil {
			err = p.Validate()
		}
		if err != nil {
			return fail(2, err)
		}
		if mode == "render" {
			// Byte-identical at any -j: the renderer behind mindgap-bench's figures.
			format := experiment.Text
			if *csv {
				format = experiment.CSV
			}
			if err := experiment.RenderPreset(ctx, rn, p, q, stdout, format); err != nil {
				return fail(1, err)
			}
			return 0
		}
		sp = p.SpecFor(0)
	}
	if *system != "" || len(sets) > 0 {
		if *system != "" {
			sp.System = *system
		}
		k, err := knobsWith(sp, *system != "", sets)
		if err != nil {
			return fail(2, err)
		}
		sp.Knobs = &k
	}
	if given["dist"] {
		sp.Workload = *distSpec
	}
	if given["rps"] {
		sp.Load = &scenario.LoadSpec{RPS: *rps}
	}
	if given["zipf-keys"] || given["zipf-skew"] {
		if !given["zipf-keys"] && sp.Keys != nil {
			*zipfN = sp.Keys.N
		}
		sp.Keys = nil
		if *zipfN > 0 {
			sp.Keys = &scenario.KeysSpec{N: *zipfN, Skew: *zipfS}
		}
	}
	if err := sp.Validate(); err != nil {
		return fail(2, err)
	}
	if mode == "trace" {
		return traceRun(sp, *traceFmt, *n, *show == "preempted", *attrFlag, stdout, stderr)
	}

	seeds, err := replicateSeeds(*seedList, *replicates, q.Seed)
	switch {
	case err != nil:
		return fail(2, err)
	case len(seeds) > 0 && sp.Seed != 0:
		return fail(2, fmt.Errorf("-scenario %s pins seed %d; a seed list cannot replace it", *scenarioArg, sp.Seed))
	}
	cfg, err := pointFor(sp, q, scenario.Options{})
	if err != nil {
		return fail(2, err)
	}
	start := time.Now()
	if len(seeds) > 0 {
		var rep experiment.Replicated
		if rep, err = experiment.Replicate(ctx, rn, sp, q, seeds); err != nil {
			err = fmt.Errorf("%v — %d/%d replicates completed", err, len(rep.Runs), len(seeds))
		}
		if len(rep.Runs) > 0 {
			fmt.Fprintf(stdout, "system=%s workload=%v offered=%.0f rps replicates=%d seeds=%v\n",
				rep.Runs[0].SystemName, workloadOf(cfg), cfg.OfferedRPS, len(rep.Runs), seeds[:len(rep.Runs)])
			fmt.Fprintf(stdout, "p99 = %v ± %v   achieved = %.0f ± %.0f rps   saturated=%t\n",
				rep.MeanP99, rep.P99StdDev, rep.MeanAchieved, rep.AchievedStdDev, rep.AnySaturated)
			fmt.Fprintf(stdout, "relative p99 spread = %.2f%% (std dev / mean across seeds)\n", rep.RelativeP99Spread()*100)
		}
		for i, r := range rep.Runs {
			fmt.Fprintf(stdout, "  seed %-6d %s\n", seeds[i], r.Point)
		}
	} else {
		r := experiment.RunPoint(cfg)
		fmt.Fprintf(stdout, "system=%s workload=%v offered=%.0f rps\n%s\n", r.SystemName, workloadOf(cfg), cfg.OfferedRPS, r.Point)
		fmt.Fprintf(stdout, "mean=%v max=%v preemptions=%d drops=%d simtime=%v\n",
			r.Mean, r.Max, r.Preemptions, r.Dropped, r.SimTime.Round(time.Millisecond))
	}
	fmt.Fprintf(stderr, "walltime=%v\n", time.Since(start).Round(time.Millisecond))
	if err != nil {
		return fail(1, err)
	}
	return 0
}

// knobsWith returns sp's knobs with the -set overrides applied through
// the scenario schema's strict decoder, each value a JSON literal or else
// a JSON string. With drop, the knobs sp's system does not read go first.
func knobsWith(sp scenario.Spec, drop bool, sets []string) (scenario.Knobs, error) {
	m := map[string]json.RawMessage{}
	b, _ := json.Marshal(sp.KnobsOrZero()) // plain data: cannot fail
	json.Unmarshal(b, &m)
	if sys, ok := scenario.Lookup(sp.System); ok && drop {
		for name := range m {
			if !slices.Contains(sys.Reads, name) {
				delete(m, name)
			}
		}
	}
	names, _ := scenario.Knobs{}.Names()
	for _, s := range sets {
		name, v, _ := strings.Cut(s, "=")
		if !slices.Contains(names, name) {
			return scenario.Knobs{}, fmt.Errorf("-set %q: unknown knob %q (want name=value, name one of %s)", s, name, strings.Join(names, ", "))
		}
		if m[name] = json.RawMessage(v); !json.Valid(m[name]) {
			m[name], _ = json.Marshal(v)
		}
	}
	b, _ = json.Marshal(map[string]any{"knobs": m})
	dec, err := scenario.Decode(b)
	return dec.KnobsOrZero(), err
}

// workloadOf names what drives the point: its service distribution, or
// each tenant's, comma-separated, for a tenant mix.
func workloadOf(cfg experiment.PointConfig) string {
	if len(cfg.Tenants) == 0 {
		return fmt.Sprint(cfg.Service)
	}
	ws := make([]string, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		ws[i] = fmt.Sprint(t.Service)
	}
	return strings.Join(ws, ",")
}

// pointFor compiles sp into one measured point: the spec's own
// generator, keys and tenants, its system built with the observers in o
// attached, quality q, at the spec's one offered rate.
func pointFor(sp scenario.Spec, q experiment.Quality, o scenario.Options) (experiment.PointConfig, error) {
	cfg, err := experiment.PointConfigFor(sp, q)
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
	return cfg, nil
}

// tracedPoint is the point -trace measures: no warm-up and 500 recorded
// completions at the spec's own seed.
func tracedPoint(sp scenario.Spec, o scenario.Options) (experiment.PointConfig, error) {
	cfg, err := pointFor(sp, experiment.Quality{}, o)
	cfg.Warmup, cfg.Measure = 0, 500
	return cfg, err
}

// traceRun measures sp's traced point with the tracer (and, with
// attribution, the collector) attached, and prints it in format.
func traceRun(sp scenario.Spec, format string, n int, preemptedOnly, attribution bool, stdout, stderr io.Writer) int {
	buf := trace.New(0)
	opts := scenario.Options{Tracer: buf}
	var col *attr.Collector
	if attribution {
		col = attr.New(attr.Config{KeepTimelines: true, AuditSamples: 4096})
		opts.Attr = col
	}
	cfg, err := tracedPoint(sp, opts)
	if err == nil {
		experiment.RunPoint(cfg)
		if err = buf.ValidateAll(); err != nil {
			err = fmt.Errorf("causality violation: %v", err)
		}
	}
	switch {
	case err != nil:
	case format == "chrome":
		err = trace.WriteChromeWith(stdout, buf, col.ChromeEvents())
	case format == "json":
		err = trace.WriteJSON(stdout, buf)
	default:
		trace.WriteText(stdout, buf, n, preemptedOnly)
		if col != nil {
			col.WriteText(stdout)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "mindgap-sim: %v\n", err)
		return 1
	}
	return 0
}

// replicateSeeds resolves -seeds (an explicit list, which wins) and
// -replicates (n consecutive seeds from base); none means a single run.
func replicateSeeds(list string, n int, base uint64) ([]uint64, error) {
	var out []uint64
	for i := 0; list == "" && i < n; i++ {
		out = append(out, base+uint64(i))
	}
	for _, f := range strings.FieldsFunc(list, func(r rune) bool { return r == ',' || r == ' ' }) {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q: %v", f, err)
		}
		out = append(out, v)
	}
	if list != "" && len(out) == 0 {
		return nil, errors.New("-seeds given but empty")
	}
	return out, nil
}
