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
func Run[S interface {
	Inject(*task.Request)
	ArmWorkerTrackers(sim.Time)
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
	loadgen.New(eng, load, sys.Inject).Start()
	eng.Run()
	if completions < measure {
		t.Fatalf("only %d/%d completions before the engine drained", completions, measure)
	}
	return rec, sys, eng
}
