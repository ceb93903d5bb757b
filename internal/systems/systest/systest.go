// Package systest is the shared harness of the system-model unit tests.
package systest

import (
	"testing"

	"mindgap/internal/loadgen"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// Run builds a system on a fresh engine, drives it with the open-loop
// workload load until measure responses have reached the client, and
// returns the recorder (armed at t=0: no warm-up here, the experiment
// harness handles that for real runs), the system and the engine.
//
// At halt it runs the conservation audit the experiment harness runs
// (probe.Conserve), panicking with the broken equation, and then holds the
// run to what every unit workload here promises: exactly measure
// responses, no drop (none configures a drop source), and a worker
// completion behind every response.
func Run[S interface {
	Inject(*task.Request)
	ArmWorkerTrackers(sim.Time)
	Ledger() probe.Ledger
	Completions() uint64
}](t testing.TB, build func(*sim.Engine, *probe.Probe, func(*task.Request)) S, load loadgen.Config, measure int) (*stats.Recorder, S, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	rec := &stats.Recorder{}
	rec.Arm(0)
	completions := 0
	sys := build(eng, &probe.Probe{Rec: rec}, func(r *task.Request) {
		rec.RecordLatency(r.Latency(eng.Now()))
		completions++
		if completions >= measure {
			eng.Halt()
		}
	})
	sys.ArmWorkerTrackers(0)
	gen := loadgen.New(eng, load, sys.Inject)
	gen.Start()
	eng.Run()
	if err := probe.Conserve(sys.Ledger(), probe.Halt{Generated: gen.Arrivals(), Streams: 1,
		Done: uint64(completions), Pending: eng.Pending(), Pool: -1, FlowPool: -1}); err != nil {
		panic(err)
	}
	switch {
	case completions != measure:
		t.Fatalf("%d/%d completions when the engine stopped", completions, measure)
	case rec.Dropped() != 0:
		t.Fatalf("%d drops", rec.Dropped())
	case sys.Completions() < uint64(measure):
		t.Fatalf("%d worker completions behind %d responses", sys.Completions(), measure)
	}
	return rec, sys, eng
}
