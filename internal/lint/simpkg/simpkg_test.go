package simpkg

import "testing"

func TestIsSimPackage(t *testing.T) {
	for path, want := range map[string]bool{
		"mindgap":                                                 true,
		"mindgap/internal/sim":                                    true,
		"mindgap/internal/params":                                 true,
		"mindgap/internal/wire":                                   true,
		"mindgap/internal/systems/systest":                        true,
		"mindgap/internal/sim [mindgap/internal/sim.test]":        true,
		"mindgap/internal/sim.test":                               true,
		"mindgap/internal/liveness":                               true,
		"mindgap/cmd/mindgap-bench":                               false,
		"mindgap/examples/demo":                                   true,
		"mindgap/internal/live":                                   false,
		"mindgap/internal/live_test [mindgap/internal/live.test]": false,
		"mindgap/internal/lint/simpkg":                            false,
		"mindgapx/internal/sim":                                   false,
		"math/rand/v2":                                            false,
	} {
		if got := IsSimPackage(path); got != want {
			t.Errorf("IsSimPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
