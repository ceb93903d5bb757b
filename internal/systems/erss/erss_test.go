package erss

import (
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/systems/systest"
	"mindgap/internal/task"
)

func run(t *testing.T, cfg Config, rps float64, svc dist.Distribution, measure int) (*stats.Recorder, *ERSS, *sim.Engine) {
	t.Helper()
	return systest.Run(t, func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) *ERSS {
		return New(eng, cfg, pr, done)
	}, loadgen.Config{RPS: rps, Service: svc, Seed: 17}, measure)
}

func cfg(workers int) Config {
	return Config{P: params.Default(), Workers: workers}
}

func TestScalesUpUnderLoad(t *testing.T) {
	// Start at 1 provisioned core; a load needing ~3 cores must grow the
	// set.
	_, sys, _ := run(t, cfg(8), 600_000, dist.Fixed{D: 5 * time.Microsecond}, 10000)
	if sys.Provisioned() < 3 {
		t.Fatalf("provisioned = %d, want ≥ 3 under 600k×5µs load", sys.Provisioned())
	}
	if sys.Resizes() == 0 {
		t.Fatal("no reprovisioning happened")
	}
}

func TestScalesDownWhenIdle(t *testing.T) {
	eng := sim.New()
	sys := New(eng, cfg(8), nil, func(*task.Request) {})
	// Force a large provisioned set, then run with no load.
	sys.provisioned = 8
	eng.RunUntil(sim.Time(int64(2 * time.Millisecond)))
	if sys.Provisioned() != 1 {
		t.Fatalf("provisioned = %d after idle period, want 1", sys.Provisioned())
	}
}

func TestKeepsFewCoresBusyAtLowLoad(t *testing.T) {
	// The eRSS pitch: at low load, most cores stay unprovisioned (idle
	// and reusable). Mean idle fraction across all 8 cores must stay very
	// high for a load one core can handle.
	_, sys, eng := run(t, cfg(8), 50_000, dist.Fixed{D: 5 * time.Microsecond}, 4000)
	if idle := sys.WorkerIdleFraction(eng.Now()); idle < 0.85 {
		t.Fatalf("idle fraction %v, want ≥ 0.85 (cores should be deprovisioned)", idle)
	}
	if sys.Provisioned() > 3 {
		t.Fatalf("provisioned = %d at trivial load", sys.Provisioned())
	}
}

func TestCompletesEverythingWhileResizing(t *testing.T) {
	// Requests hashed to a core that later gets deprovisioned must still
	// complete (the core drains its queue).
	rec, sys, _ := run(t, cfg(6),
		400_000, dist.Exponential{M: 5 * time.Microsecond}, 12000)
	if rec.Dropped() != 0 {
		t.Fatalf("drops = %d", rec.Dropped())
	}
	if sys.Completions() < 12000 {
		t.Fatalf("completions = %d", sys.Completions())
	}
}

func TestNoPreemptionHeadOfLineBlocking(t *testing.T) {
	// eRSS fixes provisioning, not blocking: a long request still blocks
	// shorts on its core.
	rec, _, _ := run(t, cfg(4), 300_000,
		dist.Bimodal{P1: 0.99, D1: 2 * time.Microsecond, D2: 300 * time.Microsecond}, 8000)
	if rec.Preemptions() != 0 {
		t.Fatal("erss must never preempt")
	}
	if rec.Latency.P99() < 100*time.Microsecond {
		t.Fatalf("p99 = %v; expected head-of-line blocking to push it high", rec.Latency.P99())
	}
}

func TestValidationAndDefaults(t *testing.T) {
	eng := sim.New()
	for _, f := range []func(){
		func() { New(eng, Config{P: params.Default()}, nil, func(*task.Request) {}) },
		func() { New(eng, cfg(1), nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid config did not panic")
				}
			}()
			f()
		}()
	}
	sys := New(eng, cfg(2), nil, func(*task.Request) {})
	if sys.Provisioned() != 1 {
		t.Fatalf("starts with %d cores provisioned, want 1", sys.Provisioned())
	}
	if sys.Name() != "erss" {
		t.Fatalf("Name = %q", sys.Name())
	}
}
