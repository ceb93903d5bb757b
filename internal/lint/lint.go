// Package lint assembles the mindgap-lint analyzer suite.
//
// The suite enforces two families of invariants. The determinism
// family (simclock, maporder, floateq, lockedsend) guards the
// evaluation methodology: simulation output must be a deterministic
// function of (config, seed), byte-identical at -j1 and -jN. The
// hot-path analyzer (poolsafe) guards the pooled-request architecture:
// pooled requests must not be read after release. That //mindgap:noalloc
// functions do not allocate is the compiler's to prove, through the
// escape gate in package escapes; that runs conserve what they inject and
// leak no credit, record or timer is checked at runtime, by the audit
// every drive loop runs at halt (probe.Conserve). See the individual
// analyzer packages for the rules, and package allow for the
// //lint:allow <analyzer> <reason> suppression mechanism.
package lint

import (
	"golang.org/x/tools/go/analysis"

	"mindgap/internal/lint/allow"
	"mindgap/internal/lint/floateq"
	"mindgap/internal/lint/lockedsend"
	"mindgap/internal/lint/maporder"
	"mindgap/internal/lint/poolsafe"
	"mindgap/internal/lint/simclock"
)

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simclock.Analyzer,
		maporder.Analyzer,
		floateq.Analyzer,
		lockedsend.Analyzer,
		poolsafe.Analyzer,
		allow.Analyzer,
	}
}
