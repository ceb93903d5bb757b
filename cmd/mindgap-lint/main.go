// Command mindgap-lint enforces the determinism and hot-path invariants
// of the mindgap simulator:
//
//	simclock    no wall clock / global rand in simulation packages
//	maporder    no order-sensitive emission from map-range loops
//	floateq     no ==/!= between floats in sim/stats code
//	lockedsend  no blocking channel ops while a mutex is held
//	poolsafe    no reads of recycled task.Request identity fields after release
//	lintallow   every //lint:allow suppression names an analyzer and a reason
//
// Leaked timers, credits and pooled records are not a static question
// here: every simulated point audits its own conservation at halt
// (probe.Conserve).
//
// Usage:
//
//	mindgap-lint [packages]             # standalone, defaults to ./...
//	mindgap-lint -escapes               # zero-escape gate on //mindgap:noalloc functions
//	go vet -vettool=$(which mindgap-lint) ./...
//
// Standalone mode exits 0 if the tree is clean, 1 if there are
// diagnostics, and 2 on a loading or internal error. When invoked by
// the go vet driver (-V=full handshake or a *.cfg argument) it speaks
// the unitchecker protocol instead.
//
// The -escapes mode is the allocation check: it runs
// `go build -gcflags=-m`, counts the compiler's heap-escape diagnostics
// inside every //mindgap:noalloc function, and exits 1 naming each
// function with a nonzero count.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"mindgap/internal/lint"
	"mindgap/internal/lint/driver"
	"mindgap/internal/lint/escapes"
)

func main() {
	// go vet probes the tool with `-V=full` (version handshake) and
	// `-flags` (flag inventory), then invokes it once per package with a
	// *.cfg file; delegate all three forms to unitchecker.
	args := os.Args[1:]
	if n := len(args); n > 0 && (strings.HasPrefix(args[0], "-V=") || args[0] == "-flags" || strings.HasSuffix(args[n-1], ".cfg")) {
		unitchecker.Main(lint.Analyzers()...) // does not return
	}

	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mindgap-lint [-escapes] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", "-escapes", "fail on any compiler heap escape in a "+escapes.Directive+" function")
	}
	escapesMode := flag.Bool("escapes", false, "run the zero-escape gate instead of the analyzers")
	flag.Parse()
	if *escapesMode {
		runEscapes()
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := driver.Run(patterns, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "mindgap-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mindgap-lint: %d diagnostic(s); fix them or add //lint:allow <analyzer> <reason>\n", len(diags))
		os.Exit(1)
	}
}

// runEscapes executes the zero-escape gate and exits.
func runEscapes() {
	counts, err := escapes.Collect()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mindgap-lint: %v\n", err)
		os.Exit(2)
	}
	var bad []string
	for key, n := range counts {
		if n > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d heap escape(s)", key, n))
		}
	}
	sort.Strings(bad)
	for _, v := range bad {
		fmt.Println(v)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "mindgap-lint: %d %s function(s) allocate; fix them, or unannotate one that must allocate\n", len(bad), escapes.Directive)
		os.Exit(1)
	}
	fmt.Printf("mindgap-lint: escape gate clean: %d %s function(s), zero heap escapes\n", len(counts), escapes.Directive)
}
