// Command mindgap-sim runs simulated configurations and prints their
// measured points — the interactive counterpart to mindgap-bench's fixed
// figure grids. Systems are assembled through the scenario registry
// (internal/scenario): either from command-line flags, or from a
// declarative scenario file / named preset via -scenario. With
// -replicates (or -seeds) a flag-mode point is measured across several
// independent seeds — fanned out in parallel by the sweep runner — and
// reported with cross-seed error bars.
//
// Usage:
//
//	mindgap-sim -system offload -workers 4 -outstanding 4 -slice 10µs \
//	            -dist bimodal:0.995:5µs:100µs -rps 400000
//	mindgap-sim -system shinjuku -workers 3 -rps 300000
//	mindgap-sim -system rss|zygos|flowdir|rpcvalet|erss -workers 4 ...
//	mindgap-sim -system offload -cxl -linerate ...
//	mindgap-sim -list-systems              # registry names, docs, knobs
//	mindgap-sim -scenario figure2 -quality quick -csv
//	mindgap-sim -scenario my-spec.json     # file: preset or single spec
//	mindgap-sim -replicates 5 -j 5         # error bars across seeds 7..11
//	mindgap-sim -seeds 1,2,3 -cache ~/.mindgap
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mindgap/internal/experiment"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/scenarios"
)

func main() {
	runner.PaceGC()
	var (
		system      = flag.String("system", "offload", "system registry name (see -list-systems)")
		workers     = flag.Int("workers", 4, "worker cores")
		outstanding = flag.Int("outstanding", 4, "per-worker outstanding limit (offload)")
		slice       = flag.Duration("slice", 10*time.Microsecond, "preemption quantum (0 disables)")
		distSpec    = flag.String("dist", "bimodal:0.995:5µs:100µs", "service-time distribution")
		rps         = flag.Float64("rps", 400_000, "offered load")
		warmup      = flag.Int("warmup", 20_000, "warmup completions to discard")
		measure     = flag.Int("measure", 100_000, "completions to measure")
		seed        = flag.Uint64("seed", 7, "workload seed")
		replicates  = flag.Int("replicates", 0, "measure across this many consecutive seeds starting at -seed (0 = single run)")
		seedList    = flag.String("seeds", "", "comma-separated explicit seed list (overrides -replicates)")
		jobs        = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrently simulated points")
		timeout     = flag.Duration("timeout", 0, "deadline; points completed by then are still printed (0 = none)")
		cacheDir    = flag.String("cache", "", "directory for the on-disk result cache (empty = no caching)")
		zipfN       = flag.Int("zipf-keys", 0, "key-space size for zipf keys (0 = no keys)")
		zipfS       = flag.Float64("zipf-skew", 0.99, "zipf skew")
		cxl         = flag.Bool("cxl", false, "offload: coherent-memory communication (§5.1-2)")
		lineRate    = flag.Bool("linerate", false, "offload: hardware line-rate scheduler (§5.1-1)")
		directIRQ   = flag.Bool("directirq", false, "offload: NIC-posted interrupts (§5.1-3)")
		scenarioArg = flag.String("scenario", "", "scenario file (preset or single spec JSON) or embedded preset name")
		quality     = flag.String("quality", "", "scenario mode sample counts: quick or full (default: -warmup/-measure/-seed)")
		csv         = flag.Bool("csv", false, "scenario mode: CSV output")
		listSystems = flag.Bool("list-systems", false, "print the system registry and exit")
	)
	flag.Parse()

	if *listSystems {
		fmt.Println("registered systems (build any of them with -system or a scenario file):")
		for _, b := range scenario.Systems() {
			fmt.Printf("  %-10s %s\n", b.Name, b.Doc)
			fmt.Printf("  %-10s knobs: %s\n", "", strings.Join(b.Knobs, ", "))
		}
		fmt.Println("\nembedded presets (run with -scenario <name>):")
		fmt.Printf("  %s\n", strings.Join(scenarios.Names(), ", "))
		return
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
			log.Fatalf("mindgap-sim: %v", err)
		}
		rn.Cache = c
	}

	q, ok := experiment.Qualities[*quality]
	switch {
	case *quality == "":
		q = experiment.Quality{Warmup: *warmup, Measure: *measure, Seed: *seed}
	case !ok:
		log.Fatalf("mindgap-sim: unknown -quality %q (want quick or full)", *quality)
	}

	if *scenarioArg != "" {
		// -scenario prints through the renderer behind mindgap-bench's
		// figures; the output is byte-identical at any -j parallelism.
		p, err := scenarios.LoadArg(*scenarioArg, scenario.DecodeAny, scenarios.Load)
		if err == nil {
			err = p.Validate()
		}
		if err != nil {
			log.Fatalf("mindgap-sim: %v", err)
		}
		format := experiment.Text
		if *csv {
			format = experiment.CSV
		}
		if err := experiment.RenderPreset(ctx, rn, p, q, os.Stdout, format); err != nil {
			fmt.Fprintf(os.Stderr, "mindgap-sim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Flag mode: assemble a spec from the command line and build it
	// through the registry — only knobs the chosen system accepts are
	// set, so e.g. `-system rss -slice 10µs` fails loudly.
	sp, err := specFromFlags(*system, *workers, *outstanding, *slice, *cxl, *lineRate, *directIRQ)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mindgap-sim: %v\n", err)
		os.Exit(2)
	}
	sp.Workload = *distSpec
	sp.Load = &scenario.LoadSpec{RPS: *rps}
	if *zipfN > 0 {
		sp.Keys = &scenario.KeysSpec{N: *zipfN, Skew: *zipfS}
	}
	cfg, err := experiment.PointConfigFor(sp, q)
	if err != nil {
		log.Fatalf("mindgap-sim: %v", err)
	}
	cfg.OfferedRPS = *rps
	svc := cfg.Service

	seeds, err := replicateSeeds(*seedList, *replicates, q.Seed)
	if err != nil {
		log.Fatalf("mindgap-sim: %v", err)
	}

	start := time.Now()
	if len(seeds) > 0 {
		rep, err := experiment.Replicate(ctx, rn, sp, q, seeds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mindgap-sim: %v — %d/%d replicates completed\n",
				err, len(rep.Runs), len(seeds))
		}
		if len(rep.Runs) == 0 {
			os.Exit(1)
		}
		fmt.Printf("system=%s workload=%v offered=%.0f rps replicates=%d seeds=%v\n",
			rep.Runs[0].SystemName, svc, *rps, len(rep.Runs), seeds[:len(rep.Runs)])
		fmt.Printf("p99 = %v ± %v   achieved = %.0f ± %.0f rps   saturated=%t\n",
			rep.MeanP99, rep.P99StdDev, rep.MeanAchieved, rep.AchievedStdDev, rep.AnySaturated)
		fmt.Printf("relative p99 spread = %.2f%% (std dev / mean across seeds)\n",
			rep.RelativeP99Spread()*100)
		for i, r := range rep.Runs {
			fmt.Printf("  seed %-6d %s\n", seeds[i], r.Point)
		}
		fmt.Printf("walltime=%v\n", time.Since(start).Round(time.Millisecond))
		if err != nil {
			os.Exit(1)
		}
		return
	}

	r := experiment.RunPoint(cfg)
	fmt.Printf("system=%s workload=%v offered=%.0f rps\n", r.SystemName, svc, *rps)
	fmt.Printf("%s\n", r.Point)
	fmt.Printf("mean=%v max=%v preemptions=%d drops=%d simtime=%v walltime=%v\n",
		r.Mean, r.Max, r.Preemptions, r.Dropped,
		r.SimTime.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
}

// specFromFlags maps the flag surface onto a scenario spec, setting only
// the knobs the chosen system kind accepts.
func specFromFlags(system string, workers, outstanding int, slice time.Duration, cxl, lineRate, directIRQ bool) (scenario.Spec, error) {
	b, ok := scenario.Lookup(system)
	if !ok {
		return scenario.Spec{}, fmt.Errorf("unknown system %q (see -list-systems)", system)
	}
	accepts := func(name string) bool {
		for _, k := range b.Knobs {
			if k == name {
				return true
			}
		}
		return false
	}
	k := scenario.Knobs{Workers: workers}
	if accepts("outstanding") {
		k.Outstanding = outstanding
	}
	if accepts("slice") {
		k.Slice = scenario.Duration(slice)
	}
	k.CXL = cxl
	k.LineRate = lineRate
	k.DirectInterrupts = directIRQ
	sp := scenario.Spec{System: system, Knobs: &k}
	if err := sp.Validate(); err != nil {
		return scenario.Spec{}, err
	}
	return sp, nil
}

// replicateSeeds resolves the -seeds / -replicates flags: an explicit list
// wins; otherwise n consecutive seeds starting at base. An empty result
// means single-run mode.
func replicateSeeds(list string, n int, base uint64) ([]uint64, error) {
	if list != "" {
		var out []uint64
		for _, f := range strings.Split(list, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -seeds entry %q: %v", f, err)
			}
			out = append(out, v)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("-seeds given but empty")
		}
		return out, nil
	}
	if n <= 0 {
		return nil, nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out, nil
}
