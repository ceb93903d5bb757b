package core

import (
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
	"mindgap/internal/trace"
)

// TestDropPathTraceAndCounters floods an admission-limited system and
// checks two invariants of the shed path: a dropped request's lifecycle
// ends at the Drop event (no Dispatch/Start/Complete afterwards), and the
// trace, the Recorder and the shed counter agree on the drops.
func TestDropPathTraceAndCounters(t *testing.T) {
	eng := sim.New()
	rec := &stats.Recorder{}
	rec.Arm(0)
	buf := trace.New(0)
	cfg := defaultCfg(1, 1, 0)
	cfg.AdmissionLimit = 2

	sys := NewOffload(eng, cfg, &probe.Probe{Rec: rec, Trace: buf}, func(r *task.Request) {
		rec.RecordLatency(r.Latency(eng.Now()))
	})
	// Burst of 40 slow requests at t=0: one worker with k=1 and a
	// 2-deep central queue must shed most of them.
	for i := 0; i < 40; i++ {
		id := uint64(i + 1)
		eng.At(0, func() { sys.Inject(task.New(id, eng.Now(), 5*time.Microsecond)) })
	}
	eng.Run()

	if rec.Dropped() == 0 {
		t.Fatal("flood produced no drops; admission limit not exercised")
	}
	if err := buf.ValidateAll(); err != nil {
		t.Fatalf("trace validation: %v", err)
	}

	// No lifecycle event may follow a Drop.
	drops := 0
	for _, id := range buf.Requests() {
		life := buf.Lifecycle(id)
		for i, e := range life {
			if e.Kind != trace.Drop {
				continue
			}
			drops++
			for _, after := range life[i+1:] {
				switch after.Kind {
				case trace.Dispatch, trace.Start, trace.Complete:
					t.Fatalf("req %d: %v after Drop:\n%s", id, after.Kind, buf.Format(id))
				}
			}
		}
	}
	if int64(drops) != rec.Dropped() {
		t.Fatalf("trace has %d Drop events, recorder counted %d", drops, rec.Dropped())
	}
	// Shed and the recorder are fed by the same probe call; here every drop
	// is an admission shed.
	if sys.Shed() != uint64(rec.Dropped()) {
		t.Fatalf("Shed() = %d, Recorder.Dropped() = %d", sys.Shed(), rec.Dropped())
	}
}

// TestTelemetrySnapshotMatchesRecorder is the acceptance check: after a
// simulated run drains, every gauge in the telemetry snapshot must agree
// with the run's stats.Recorder totals, and the gauges are read live.
func TestTelemetrySnapshotMatchesRecorder(t *testing.T) {
	const n = 300
	eng := sim.New()
	rec := &stats.Recorder{}
	rec.Arm(0)
	reg := telemetry.NewRegistry()
	cfg := defaultCfg(2, 2, 20*time.Microsecond)

	// At every completion the response link has delivered at least as many
	// responses as the client has seen: the gauge is read at that instant.
	seen := 0
	sys := NewOffload(eng, cfg, &probe.Probe{Rec: rec}, func(r *task.Request) {
		rec.RecordLatency(r.Latency(eng.Now()))
		seen++
		if got := reg.Snapshot().Gauges["fabric/nic→client/delivered"]; got < float64(seen) || got > n {
			t.Fatalf("after %d responses the nic→client delivered gauge reads %v", seen, got)
		}
	})
	sys.RegisterTelemetry(reg)

	gen := loadgen.New(eng, loadgen.Config{
		RPS:         150_000,
		Service:     dist.Exponential{M: 10 * time.Microsecond},
		Seed:        7,
		MaxArrivals: n,
	}, sys.Inject)
	gen.Start()
	eng.Run() // drains: every arrival completes
	rec.Stop(eng.Now())

	if rec.Completed() != n {
		t.Fatalf("completed %d of %d", rec.Completed(), n)
	}
	pre := float64(rec.Preemptions())
	if pre == 0 {
		t.Fatal("no preemptions; the requeue path is not exercised")
	}
	// Every request is assigned once, plus once more per preemption; each
	// assignment is one frame to a worker, each FINISH or PREEMPTED one
	// frame back to the ARM complex.
	assigned, notifs := n+pre, n+pre
	want := map[string]float64{
		"sched/assigned":              assigned,
		"nic/steered":                 assigned + notifs,
		"arm-networker/processed":     n,
		"arm-queue/processed":         n + notifs,
		"arm-tx/processed":            assigned,
		"arm-rx/processed":            notifs,
		"fabric/client→nic/delivered": n,
		"fabric/nic→client/delivered": n,
		"fabric/shm-net→q/delivered":  n,
		"fabric/shm-q→tx/delivered":   assigned,
		"fabric/shm-rx→q/delivered":   notifs,
		"fabric/nic→arm/delivered":    notifs,
	}
	snap := reg.Snapshot().Gauges
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %v, want %v", k, snap[k], v)
		}
	}
	if toWorkers := snap["fabric/nic→w0/delivered"] + snap["fabric/nic→w1/delivered"]; toWorkers != assigned {
		t.Errorf("worker links delivered %v frames, want one per assignment (%v)", toWorkers, assigned)
	}
	if scan := snap["sched/scan_steps"]; scan < assigned {
		t.Errorf("sched/scan_steps = %v, below one probe per assignment (%v)", scan, assigned)
	}
}
