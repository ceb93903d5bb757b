// Package simpkg decides which packages are "simulation packages" for
// the purposes of mindgap-lint.
//
// The reproduction's headline guarantee is that experiment output is a
// deterministic function of (config, seed): byte-identical at -j1 and
// -jN, independent of wall clock, scheduler, and iteration order. Every
// package of the module computes or renders simulated results — the
// models, the calibration constants, the exporters whose output feeds
// golden files — except the ones named in exempt: live-serving code
// (internal/live), command-line frontends (cmd/...) and the linter
// itself are free to read the wall clock. A new package is checked
// unless it is added here.
package simpkg

import "strings"

// module is the module path; packages outside it (the standard library,
// vendored code) are never simulation packages.
const module = "mindgap"

// exempt are the module subtrees the determinism rules skip.
var exempt = []string{
	"mindgap/cmd",
	"mindgap/internal/live",
	"mindgap/internal/lint",
}

// IsSimPackage reports whether the import path names a package whose
// code must be clock- and scheduler-independent.
func IsSimPackage(path string) bool {
	// Test binaries are loaded under paths like
	// "mindgap/internal/sim [mindgap/internal/sim.test]" by go vet;
	// strip the variant suffix so they classify like their package.
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(strings.TrimSuffix(path, ".test"), "_test")
	if !within(path, module) {
		return false
	}
	for _, p := range exempt {
		if within(path, p) {
			return false
		}
	}
	return true
}

// within reports whether path is root or a package below it.
func within(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}
