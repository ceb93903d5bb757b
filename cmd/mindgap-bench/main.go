// Command mindgap-bench regenerates every figure and in-text measurement of
// the paper's evaluation section (see DESIGN.md's experiment index) and
// prints the series to stdout, optionally as CSV.
//
// Figures and tables are declared as sweeps and executed by the parallel
// sweep runner (internal/runner). Every selected entry starts at once, and
// their points share the runner's -j slots. Results are keyed by grid
// index and each entry prints in registry order, so output is
// byte-identical at any parallelism. Ctrl-C (or -timeout) cancels between
// points and prints the entries that completed. -cache memoises per-point
// results on disk so re-renders only run points the cache has not seen.
//
// Usage:
//
//	mindgap-bench                    # every figure and table, full quality
//	mindgap-bench -fig 2             # one figure
//	mindgap-bench -table timer       # one table
//	mindgap-bench -fig 2 -table ipc  # one of each, the figure first
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
	"bytes"
	"cmp"
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
	"sync/atomic"
	"time"

	"mindgap/hypotheses"
	"mindgap/internal/experiment"
	"mindgap/internal/hypothesis"
	"mindgap/internal/runner"
	"mindgap/scenarios"
)

func main() {
	runner.PaceGC()
	os.Exit(run(os.Args, os.Stdout, os.Stderr))
}

// pick resolves a -fig or -table value against its registry: the named
// entry, the whole registry when no entry was named at all, or nothing.
func pick(reg []experiment.Entry, kind, id string, all bool) ([]experiment.Entry, error) {
	for _, e := range reg {
		if e.ID == id {
			return []experiment.Entry{e}, nil
		}
	}
	switch {
	case id != "":
		return nil, fmt.Errorf("unknown %s %q (want one of: %s)", kind, id, idList(reg))
	case all:
		return reg, nil
	}
	return nil, nil
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
		fig      = fs.String("fig", "", "figure to run: "+idList(experiment.FigureIDs)+" (neither -fig nor -table = all)")
		table    = fs.String("table", "", "table to run: "+idList(experiment.TableIDs)+" (neither -fig nor -table = all)")
		quality  = fs.String("quality", "full", "sample counts: quick or full")
		csv      = fs.Bool("csv", false, "CSV output for figures")
		plot     = fs.Bool("plot", false, "ASCII chart output for figures")
		jobs     = fs.Int("j", runtime.GOMAXPROCS(0), "max concurrently simulated points")
		timeout  = fs.Duration("timeout", 0, "overall deadline; on expiry, completed entries are printed (0 = none)")
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

	q, ok := experiment.Qualities[*quality]
	if !ok {
		fmt.Fprintf(stderr, "mindgap-bench: unknown -quality %q (want quick or full)\n", *quality)
		return 2
	}
	format := experiment.Text
	switch {
	case *csv:
		format = experiment.CSV
	case *plot:
		format = experiment.Plot
	}
	// -fig and -table select one entry each (the figure runs first);
	// neither selects every entry.
	all := *fig == "" && *table == ""
	figs, err := pick(experiment.FigureIDs, "figure", *fig, all)
	tables, terr := pick(experiment.TableIDs, "table", *table, all)
	if err = cmp.Or(err, terr); err != nil {
		fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
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

	var parts []part
	var failed atomic.Bool // a hypothesis FAIL verdict
	if *hyp == "" {
		add := func(kind string, entries []experiment.Entry) {
			for _, e := range entries {
				parts = append(parts, part{kind + " " + e.ID, func(ctx context.Context, w io.Writer) error {
					return e.Render(ctx, rn, q, w, format)
				}})
			}
		}
		add("figure", figs)
		add("table", tables)
	} else {
		// Hypotheses run through the same cached runner and print their
		// FINDINGS. A FAIL verdict — a claim the simulator no longer
		// supports — exits nonzero; a hypothesis that does not load
		// aborts the run before any hypothesis runs.
		names := []string{*hyp}
		if *hyp == "all" {
			names = hypotheses.Names()
		}
		for _, name := range names {
			s, err := scenarios.LoadArg(name, hypothesis.Decode, hypotheses.Load)
			if err == nil {
				err = s.Validate()
			}
			if err != nil {
				fmt.Fprintf(stderr, "mindgap-bench: %v\n", err)
				return 2
			}
			parts = append(parts, part{"hypothesis " + s.ID, func(ctx context.Context, w io.Writer) error {
				rep, err := hypothesis.Run(ctx, rn, s, q)
				if err != nil {
					return err
				}
				if !rep.Pass {
					failed.Store(true)
				}
				_, err = w.Write(rep.Render())
				return err
			}})
		}
	}
	exitCode := 0
	if !runParts(ctx, parts, stdout, stderr) || failed.Load() {
		exitCode = 1
	}
	fmt.Fprintf(stderr, "mindgap-bench: runner: %+v\n", rn.Stats())
	if rn.Cache != nil {
		hits, misses, writeErrs := rn.Cache.Stats()
		fmt.Fprintf(stderr, "mindgap-bench: cache %s: %d hits, %d misses, %d write errors\n",
			rn.Cache.Dir(), hits, misses, writeErrs)
	}
	return exitCode
}

// part is one block of stdout: an entry or a hypothesis, measured on the
// shared runner and printed into w.
type part struct {
	name string
	run  func(ctx context.Context, w io.Writer) error
}

// runParts starts every part at once, each into its own buffer, and
// prints the buffers in order as soon as a part and every part before it
// are done, so stdout is the same whatever order they finish in. The
// first part that fails ends the run: the parts still running are
// cancelled, and stdout holds the parts before it. Each printed part
// gets a stderr line with the time since the run started.
func runParts(ctx context.Context, parts []part, stdout, stderr io.Writer) bool {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	bufs := make([]bytes.Buffer, len(parts))
	errs := make([]error, len(parts))
	done := make([]chan struct{}, len(parts))
	for i, p := range parts {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			errs[i] = p.run(ctx, &bufs[i])
		}()
	}
	defer func() {
		cancel()
		for _, d := range done {
			<-d
		}
	}()
	for i, p := range parts {
		<-done[i]
		err := errs[i]
		if err == nil {
			_, err = stdout.Write(bufs[i].Bytes())
		}
		if err != nil {
			fmt.Fprintf(stderr, "mindgap-bench: %s: %v — stdout holds the completed prefix\n", p.name, err)
			return false
		}
		fmt.Fprintf(stderr, "mindgap-bench: %s: printed %v after start\n", p.name, time.Since(start).Round(time.Millisecond))
	}
	return true
}
