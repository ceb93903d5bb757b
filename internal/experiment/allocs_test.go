package experiment

import (
	"testing"

	"mindgap/internal/attr"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
	"mindgap/internal/trace"
)

// TestSteadyStateAllocsPerRequest holds every registered system's healthy
// point, the §5.1 ablation points, the lossy-fabric point with its per-dispatch timeout machinery
// (pooled flight records, embedded timers), and the NIC-crash point whose
// measured stretch spans the 10–14 ms degraded window (hash-steered frames,
// degraded drops), and the attribution table's informed offload point with
// every observer attached (collector, a 64 Ki-event trace buffer, telemetry
// registry), to the pooled hot path's promise: once warm, serving a
// request allocates (almost) nothing. Each point runs at two lengths; the
// run is deterministic, so the longer one repeats the shorter and then
// serves extra requests, and the difference in heap allocations is what
// those requests cost. The escape gate cannot see append growth or an
// unannotated callee: a worker inbox consumed with s = s[1:] once allocated
// a fresh backing array per request inside //mindgap:noalloc functions.
func TestSteadyStateAllocsPerRequest(t *testing.T) {
	const short, long = 2000, 8000
	probed := presetCase(t, "table-attribution", 0, 450_000)
	probed.name = "probes-on/" + probed.name
	cases := append(append(systemCases(t), ablationCases(t)...),
		presetCase(t, "figure-faults-lossyfabric", 1, 300_000),
		presetCase(t, "figure-faults-niccrash", 1, 300_000),
		probed)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(measure int) float64 {
				cfg, err := PointConfigFor(c.spec, Quality{Warmup: 500, Measure: measure, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				cfg.OfferedRPS = c.rps
				if c.name == probed.name {
					cfg.Factory = func(e *sim.Engine, rec *stats.Recorder, done func(*task.Request)) scenario.System {
						return observed(c.spec, scenario.Options{
							Tracer:  trace.New(64 << 10),
							Attr:    attr.New(attr.Config{}),
							Metrics: telemetry.NewRegistry(),
						})(e, rec, done)
					}
				}
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
