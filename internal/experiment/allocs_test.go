package experiment

import "testing"

// TestSteadyStateAllocsPerRequest holds every registered system's healthy
// point to the pooled hot path's promise: once warm, serving a request
// allocates (almost) nothing. Each point runs at two lengths; the run is
// deterministic, so the longer one repeats the shorter and then serves
// extra requests, and the difference in heap allocations is what those
// requests cost. hotalloc cannot see append growth, which is how a worker
// inbox consumed with s = s[1:] once allocated a fresh backing array per
// request inside functions annotated //mindgap:noalloc. The lossy-fabric
// point has its own ceiling: under a fault spec with a timeout every
// dispatch allocates a flight record and a timer handle (measured 2.11).
func TestSteadyStateAllocsPerRequest(t *testing.T) {
	const short, long = 2000, 8000
	lossy := presetCase(t, "figure-faults-lossyfabric", 1, 300_000)
	for _, c := range append(systemCases(t), lossy) {
		ceiling := 0.2
		if c.spec.Faults != nil {
			ceiling = 2.2
		}
		t.Run(c.name, func(t *testing.T) {
			allocs := func(measure int) float64 {
				cfg, err := PointConfigFor(c.spec, Quality{Warmup: 500, Measure: measure, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				cfg.OfferedRPS = c.rps
				return testing.AllocsPerRun(1, func() { drive(cfg, nil) })
			}
			perReq := (allocs(long) - allocs(short)) / (long - short)
			if perReq > ceiling {
				t.Errorf("%.3f heap allocations per request in steady state, want <= %.1f", perReq, ceiling)
			}
			t.Logf("%.3f allocs/request", perReq)
		})
	}
}
