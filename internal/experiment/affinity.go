package experiment

import (
	"fmt"
	"io"
	"time"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
)

// AffinityResult is the X11 extension experiment: §3.1's scheduling
// affinity. With affinity off, a preempted request resumes on whichever
// worker frees first and pays a cache-migration penalty; with affinity on,
// the scheduler prefers the request's previous worker.
type AffinityResult struct {
	// MigrationsOff/On count cross-core resumes per configuration.
	MigrationsOff, MigrationsOn uint64
	// Preemptions counts preemptions in the affinity-on run (similar in
	// both; reported for rate context).
	Preemptions uint64
	// MeanOff/On and P99Off/On are client-observed latencies.
	MeanOff, MeanOn time.Duration
	P99Off, P99On   time.Duration
}

// AffinityMeasure is the runner payload of one X11 simulation.
type AffinityMeasure struct {
	Migrations, Preemptions uint64
	Mean, P99               time.Duration
}

// migrationCounter is the extra surface the affinity experiment needs
// beyond scenario.System; the offload system implements it.
type migrationCounter interface {
	Migrations() uint64
	Preemptions() uint64
}

// Affinity is the X11 row kind: a measured point plus the system's
// whole-run migration and preemption counters.
var Affinity = Kind[AffinityMeasure]{
	run: func(cfg PointConfig, _ scenario.Spec, _ float64) AffinityMeasure {
		r, sys := drive(cfg, nil)
		mc := sys.(migrationCounter)
		return AffinityMeasure{
			Migrations:  mc.Migrations(),
			Preemptions: mc.Preemptions(),
			Mean:        r.Mean,
			P99:         r.P99,
		}
	},
}

// AffinityAblation reduces a complete Affinity run of the table-affinity
// preset — its affinity-off and affinity-on series — to X11. The
// workload is preemption-heavy: 10% of requests run 100 µs against a
// 10 µs slice, so every long request is preempted ~9 times and each
// resume either stays local or migrates.
func AffinityAblation(res []runner.SeriesResult[AffinityMeasure]) AffinityResult {
	off, on := res[0].Results[0], res[1].Results[0]
	return AffinityResult{
		MigrationsOff: off.Migrations,
		MigrationsOn:  on.Migrations,
		Preemptions:   on.Preemptions,
		MeanOff:       off.Mean,
		MeanOn:        on.Mean,
		P99Off:        off.P99,
		P99On:         on.P99,
	}
}

// printAffinity prints X11.
func printAffinity(w io.Writer, _ scenario.Preset, res []runner.SeriesResult[AffinityMeasure]) {
	r := AffinityAblation(res)
	fmt.Fprintf(w, "migrations: off=%d on=%d (preemptions %d); mean: off=%v on=%v; p99: off=%v on=%v\n\n",
		r.MigrationsOff, r.MigrationsOn, r.Preemptions,
		r.MeanOff, r.MeanOn, r.P99Off, r.P99On)
}
