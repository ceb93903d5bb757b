package experiment

import "testing"

// TestSteadyStateAllocsPerRequest holds every registered system's healthy
// point, and the lossy-fabric point with its per-dispatch timeout machinery
// (pooled flight records, embedded timers), to the pooled hot path's
// promise: once warm, serving a request allocates (almost) nothing. Each
// point runs at two lengths; the run is
// deterministic, so the longer one repeats the shorter and then serves
// extra requests, and the difference in heap allocations is what those
// requests cost. hotalloc cannot see append growth, which is how a worker
// inbox consumed with s = s[1:] once allocated a fresh backing array per
// request inside functions annotated //mindgap:noalloc.
func TestSteadyStateAllocsPerRequest(t *testing.T) {
	const short, long = 2000, 8000
	lossy := presetCase(t, "figure-faults-lossyfabric", 1, 300_000)
	for _, c := range append(systemCases(t), lossy) {
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
			if perReq > 0.2 {
				t.Errorf("%.3f heap allocations per request in steady state, want <= 0.2", perReq)
			}
			t.Logf("%.3f allocs/request", perReq)
		})
	}
}
