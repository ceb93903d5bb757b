// Command benchmark is the repository's benchmark: five named workloads
// driven through the simulator's most stable surfaces, four end-to-end
// host-time metrics per workload, and — in a separate traced run — the
// per-layer cost ledger. See README.md for the definitions.
//
//	benchmark -workload fig2_offload -seed 7 -seconds 15 -trace 0
//	benchmark -workload grid_quick -trace 1
//	benchmark -compare a.txt b.txt     # two saved outputs of this command
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, every per-layer metric with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// endToEndDef declares one end-to-end metric. All are host time and lower
// is better; Bound is the share by which a median may worsen before a
// change counts as a regression (BENCHMARK.json carries the same values).
type endToEndDef struct {
	Name, Unit string
	Bound      float64
}

var endToEndDefs = []endToEndDef{
	{"ns_per_req", "ns", 0.20},
	{"wall_s", "s", 0.20},
	{"cpu_s", "s", 0.20},
	{"setup_s", "s", 0.25},
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: a name from README.md, or all")
		seed     = flag.Uint64("seed", 7, "workload seed (grid_quick ignores it: its presets pin seeds)")
		seconds  = flag.Float64("seconds", 15, "length of the measuring window of each run")
		traced   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer ledger and span file")
		compare  = flag.Bool("compare", false, "compare two saved outputs: -compare a.txt b.txt")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *seed == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal("need -seed > 0, -seconds > 0 and -trace 0 or 1")
	}
	defs := workloadDefs
	if *workload != "all" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		defs = []workloadDef{w}
	}

	root, err := repoRoot()
	if err != nil {
		fatal("%v", err)
	}
	// The CLI is built once, before any workload and outside every setup_s;
	// timed in-process workloads do not need it.
	bin := ""
	for _, w := range defs {
		if bin == "" && (*traced == 1 || len(w.Points) == 0) {
			if bin, err = buildCLI(root); err != nil {
				fatal("%v", err)
			}
		}
	}
	outDir := filepath.Join(root, ".bench_out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}

	ok := true
	for _, w := range defs {
		var res *runResult
		switch {
		case *traced == 1:
			res, err = traceRun(w, bin, outDir, *seed, *seconds)
		case len(w.Points) == 0:
			res, err = timeGrid(w, bin, *seed, *seconds)
		default:
			res, err = timeInProcess(w, *seed, *seconds)
		}
		if err != nil {
			fatal("%s: %v", w.Name, err)
		}
		ok = report(res) && ok
	}
	if !ok {
		// The result line says what failed; the exit code stays 0 so the
		// caller reads it.
		fmt.Fprintln(os.Stderr, "benchmark: some operations failed; see ops_failed")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// report prints one run: a table for people, the full result as one JSON
// line (what -compare reads), and the contract's result line last.
func report(res *runResult) bool {
	mode := "timed"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (seed %d, %g s window, %s)\n", res.Workload, res.Seed, res.Seconds, mode)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if res.Traced {
		fmt.Printf("%-36s %-6s %16s %s\n", "per-layer metric", "unit", "value", "")
		for _, d := range ledgerDefs {
			l := res.Ledger[d.Name]
			exact := ""
			if l.Exact {
				exact = "exact"
			}
			fmt.Printf("%-36s %-6s %16.4f %s\n", d.Name, l.Unit, l.Value, exact)
			metrics[d.Name] = value{l.Value, l.Unit}
		}
		if len(res.ProfileNotes) > 0 {
			fmt.Println("in-situ CPU by package (leaf function):")
			for _, n := range res.ProfileNotes {
				fmt.Println("  " + n)
			}
		}
		fmt.Printf("spans: %s\n", res.SpanFile)
	} else {
		fmt.Printf("%-12s %-4s %14s %14s %14s %14s %14s %5s %14s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "reps", "raw median")
		for _, d := range endToEndDefs {
			s, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Printf("%-12s %-4s %14.6f %14.6f %14.6f %14.6f %14.6f %5d %14.6f\n", d.Name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.Reps, res.Raw[d.Name].Median)
			metrics[d.Name] = value{s.Median, s.Unit}
		}
	}
	fmt.Printf("ops %d  ops_failed %d  sim_digest %s  noisy %v (canary %.2f -> %.2f ms, speed %.3f of reference)\n",
		res.Ops, res.OpsFailed, res.SimDigest, res.Noisy, res.CanaryMS[0], res.CanaryMS[1], res.Speed)
	for _, f := range res.Failures {
		fmt.Println("  failed: " + f)
	}
	printJSON(res)
	complete := len(metrics) == len(endToEndDefs)
	if res.Traced {
		complete = len(metrics) == len(ledgerDefs)
	}
	correct := res.OpsFailed == 0 && res.Ops > 0 && complete
	printJSON(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(res.Ops, 1), res.OpsFailed, metrics})
	return correct
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
}

// sortedKeys returns a map's keys in order; the harness never ranges over
// a map directly where order could reach its output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
