package core

import (
	"fmt"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
	"mindgap/internal/trace"
)

// TestDropPathTraceAndCounters floods an admission-limited system and
// checks two invariants of the shed path: a dropped request's lifecycle
// ends at the Drop event (no Dispatch/Start/Complete afterwards), and
// the telemetry drop counters agree with the Recorder.
func TestDropPathTraceAndCounters(t *testing.T) {
	eng := sim.New()
	rec := &stats.Recorder{}
	rec.Arm(0)
	buf := trace.New(0)
	reg := telemetry.NewRegistry()
	cfg := defaultCfg(1, 1, 0)
	cfg.AdmissionLimit = 2
	cfg.Metrics = reg

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

	// offload/drops and the recorder are fed by the same probe call, so
	// they agree; here every drop is an admission shed.
	snap := reg.Snapshot()
	if got := snap.Gauges["offload/drops"]; got != float64(rec.Dropped()) {
		t.Fatalf("offload/drops = %g, Recorder.Dropped() = %d", got, rec.Dropped())
	}
	if snap.Gauges["sched/shed"]+snap.Gauges["nic/vf_drops"] != snap.Gauges["offload/drops"] {
		t.Fatalf("drop counters inconsistent: %v", snap.Gauges)
	}
}

// TestTelemetrySnapshotMatchesRecorder is the acceptance check: after a
// simulated run drains, the per-component gauges in the telemetry
// snapshot must agree with the run's stats.Recorder totals.
func TestTelemetrySnapshotMatchesRecorder(t *testing.T) {
	const n = 300
	eng := sim.New()
	rec := &stats.Recorder{}
	rec.Arm(0)
	reg := telemetry.NewRegistry()
	cfg := defaultCfg(2, 2, 20*time.Microsecond)
	cfg.Metrics = reg

	// Read the central queue depth at every completion while the run is live.
	peakDepth := 0.0
	sys := NewOffload(eng, cfg, &probe.Probe{Rec: rec}, func(r *task.Request) {
		rec.RecordLatency(r.Latency(eng.Now()))
		if d := reg.Snapshot().Gauges["sched/queue_depth"]; d > peakDepth {
			peakDepth = d
		}
	})
	sys.ArmWorkerTrackers(0)

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
	snap := reg.Snapshot()

	var execDone, execPre float64
	for i := 0; i < cfg.Workers; i++ {
		execDone += snap.Gauges[fmt.Sprintf("worker%d/completions", i)]
		execPre += snap.Gauges[fmt.Sprintf("worker%d/preemptions", i)]
		util := snap.Gauges[fmt.Sprintf("worker%d/utilization", i)]
		if util <= 0 || util > 1 {
			t.Fatalf("worker%d utilization out of range: %v", i, util)
		}
	}
	if execDone != float64(rec.Completed()) {
		t.Fatalf("worker completions %v != recorder completed %d", execDone, rec.Completed())
	}
	if execPre != float64(rec.Preemptions()) {
		t.Fatalf("worker preemptions %v != recorder preemptions %d", execPre, rec.Preemptions())
	}
	if d := snap.Gauges["sched/queue_depth"]; d != 0 {
		t.Fatalf("drained system has queue depth %v", d)
	}
	if c := snap.Gauges["sched/completed"]; c != float64(rec.Completed()) {
		t.Fatalf("sched/completed %v != %d", c, rec.Completed())
	}

	// Fabric latency: the NIC→host dispatch link must have observed one
	// latency per dispatch, each at the modelled one-way delay or more
	// (serialization can add to it, never subtract).
	lat, ok := snap.Histograms["fabric/nic→client/latency"]
	if !ok || lat.Count == 0 {
		t.Fatalf("no fabric latency observations: %v", snap.Histograms)
	}
	oneWay := params.Default().ClientWireOneWay
	if lat.P50 < oneWay {
		t.Fatalf("fabric p50 %v below one-way delay %v", lat.P50, oneWay)
	}

	// The live gauge must have seen the run (non-zero depth at some point
	// under 150kRPS on 2 workers).
	if peakDepth == 0 {
		t.Fatal("queue depth never rose above zero during overload")
	}
}
