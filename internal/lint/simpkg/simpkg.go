// Package simpkg decides which packages are "simulation packages" for
// the purposes of mindgap-lint.
//
// The reproduction's headline guarantee is that experiment output is a
// deterministic function of (config, seed): byte-identical at -j1 and
// -jN, independent of wall clock, scheduler, and iteration order. That
// guarantee only has to hold for the packages that compute simulated
// results. Live-serving code (internal/live), command-line frontends
// (cmd/...) and examples are free to read the wall clock.
package simpkg

import "strings"

// simSegments are the final path segments of packages in which the
// determinism rules (simclock, floateq) apply. The list mirrors the
// simulation core enumerated in ISSUE 3 — everything that runs between
// parsing a config and emitting a latency number — plus the segments
// ISSUE 8 found missing: core (the Offload dispatcher), the four
// systems/* models (ISSUE 9 adds flowrule), and the telemetry/trace
// exporters whose output feeds golden files.
var simSegments = map[string]bool{
	"sim":        true,
	"attr":       true,
	"core":       true,
	"queue":      true,
	"nicmodel":   true,
	"cores":      true,
	"fabric":     true,
	"faults":     true,
	"task":       true,
	"dist":       true,
	"loadgen":    true,
	"experiment": true,
	"runner":     true,
	"stats":      true,
	"scenario":   true,
	"scenarios":  true,
	"shinjuku":   true,
	"rtc":        true,
	"rpcvalet":   true,
	"erss":       true,
	"idealnic":   true,
	"flowrule":   true,
	"telemetry":  true,
	"trace":      true,
	// ISSUE 10: the hypothesis layer renders golden FINDINGS and the
	// analytic package feeds its twin checks — both must stay
	// deterministic.
	"hypothesis": true,
	"analytic":   true,
	"hypotheses": true,
	// ISSUE 13: the lifecycle probe every system model reports through.
	"probe": true,
}

// exemptPrefixes are path fragments that are never simulation packages
// even if their last segment collides with simSegments (e.g. a
// hypothetical cmd/runner).
var exemptPrefixes = []string{
	"mindgap/cmd/",
	"mindgap/internal/live",
	"mindgap/examples/",
}

// IsSimPackage reports whether the import path names a package whose
// code must be clock- and scheduler-independent.
func IsSimPackage(path string) bool {
	for _, p := range exemptPrefixes {
		if strings.HasPrefix(path, p) {
			return false
		}
	}
	// Test binaries are loaded under paths like
	// "mindgap/internal/sim [mindgap/internal/sim.test]" by go vet;
	// strip the variant suffix so they classify like their package.
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, ".test")
	last := path[strings.LastIndexByte(path, '/')+1:]
	return simSegments[last]
}
