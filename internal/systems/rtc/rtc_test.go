package rtc

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

func run(t *testing.T, cfg Config, rps float64, svc dist.Distribution, keys *dist.ZipfKeys, measure int) (*stats.Recorder, *Pool, *sim.Engine) {
	t.Helper()
	return systest.Run(t, func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) *Pool {
		return New(eng, cfg, pr, done)
	}, loadgen.Config{RPS: rps, Service: svc, Keys: keys, Seed: 11}, measure)
}

func elastic(workers int) Config {
	return Config{P: params.Default(), Workers: workers, Steering: SteerElastic}
}

func TestNames(t *testing.T) {
	eng := sim.New()
	done := func(*task.Request) {}
	p := params.Default()
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{P: p, Workers: 1}, "rss"},
		{Config{P: p, Workers: 1, WorkStealing: true}, "zygos"},
		{Config{P: p, Workers: 1, Steering: SteerKey}, "flow-director"},
		{elastic(1), "erss"},
	} {
		if got := New(eng, c.cfg, nil, done).Name(); got != c.want {
			t.Fatalf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestRunToCompletionNoPreemption(t *testing.T) {
	rec, _, _ := run(t, Config{P: params.Default(), Workers: 2}, 100_000,
		dist.Bimodal{P1: 0.99, D1: time.Microsecond, D2: 100 * time.Microsecond}, nil, 3000)
	if rec.Preemptions() != 0 {
		t.Fatalf("rtc system preempted %d times", rec.Preemptions())
	}
}

func TestRSSSpreadsLoad(t *testing.T) {
	_, sys, eng := run(t, Config{P: params.Default(), Workers: 4}, 800_000,
		dist.Fixed{D: time.Microsecond}, nil, 8000)
	// All four cores must have done meaningful work.
	for i, w := range sys.Workers {
		if w.Exec.Completions() < 1000 {
			t.Fatalf("worker %d only completed %d (RSS imbalance too extreme)", i, w.Exec.Completions())
		}
	}
	_ = eng
}

func TestKeySteeringIsSticky(t *testing.T) {
	// All requests with one key land on one worker.
	eng := sim.New()
	sys := New(eng, Config{P: params.Default(), Workers: 4, Steering: SteerKey}, nil, func(*task.Request) {})
	for i := uint64(0); i < 50; i++ {
		r := task.New(i, 0, time.Microsecond)
		r.Key = 42
		sys.Inject(r)
	}
	eng.Run()
	busy := 0
	for _, w := range sys.Workers {
		if w.Exec.Completions() > 0 {
			busy++
			if w.Exec.Completions() != 50 {
				t.Fatalf("sticky worker completed %d, want 50", w.Exec.Completions())
			}
		}
	}
	if busy != 1 {
		t.Fatalf("%d workers served a single key, want 1", busy)
	}
}

func TestSkewedKeysOverloadFlowDirector(t *testing.T) {
	// §2.2 item 1: key skew creates load imbalance that RSS avoids.
	keys := dist.NewZipfKeys(64, 1.2)
	svc := dist.Fixed{D: 5 * time.Microsecond}
	p99 := func(steer Steering) time.Duration {
		rec, _, _ := run(t, Config{P: params.Default(), Workers: 4, Steering: steer},
			500_000, svc, keys, 8000)
		return rec.Latency.P99()
	}
	fd := p99(SteerKey)
	rss := p99(SteerHash)
	if fd <= rss {
		t.Fatalf("flow director p99 %v not worse than RSS %v under skew", fd, rss)
	}
}

func TestWorkStealingRepairsImbalance(t *testing.T) {
	// With uniform hash steering, random bursts still pile onto one core;
	// stealing must cut the tail versus plain RSS.
	svc := dist.Fixed{D: 10 * time.Microsecond}
	p99 := func(steal bool) time.Duration {
		rec, _, _ := run(t, Config{P: params.Default(), Workers: 4, WorkStealing: steal},
			330_000, svc, nil, 10000)
		return rec.Latency.P99()
	}
	zygos := p99(true)
	rss := p99(false)
	if zygos >= rss {
		t.Fatalf("work stealing did not help: zygos p99 %v vs rss %v", zygos, rss)
	}
}

func TestHeadOfLineBlockingWithoutPreemption(t *testing.T) {
	// The §2.2 item-2 pathology: a single worker, one long request, then
	// short ones — they must all wait (contrast with the Offload test).
	eng := sim.New()
	var lat []time.Duration
	sys := New(eng, Config{P: params.Default(), Workers: 1}, nil, func(r *task.Request) {
		lat = append(lat, r.Latency(eng.Now()))
	})
	sys.Inject(task.New(1, 0, 500*time.Microsecond))
	eng.After(time.Microsecond, func() {
		sys.Inject(task.New(2, eng.Now(), time.Microsecond))
	})
	eng.Run()
	if len(lat) != 2 {
		t.Fatalf("completions = %d", len(lat))
	}
	if lat[1] < 400*time.Microsecond {
		t.Fatalf("short request latency %v — run-to-completion should block it", lat[1])
	}
}

func TestValidation(t *testing.T) {
	eng := sim.New()
	for _, f := range []func(){
		func() { New(eng, Config{P: params.Default()}, nil, func(*task.Request) {}) },
		func() { New(eng, Config{P: params.Default(), Workers: 1}, nil, nil) },
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
}

func TestElasticScalesUpUnderLoad(t *testing.T) {
	// Start at 1 provisioned core; a load needing ~3 cores must grow the
	// set.
	_, sys, _ := run(t, elastic(8), 600_000, dist.Fixed{D: 5 * time.Microsecond}, nil, 10000)
	if sys.provisioned < 3 {
		t.Fatalf("provisioned = %d, want ≥ 3 under 600k×5µs load", sys.provisioned)
	}
}

func TestElasticScalesDownWhenIdle(t *testing.T) {
	eng := sim.New()
	sys := New(eng, elastic(8), nil, func(*task.Request) {})
	// Force a large provisioned set, then run with no load.
	sys.provisioned = 8
	eng.RunUntil(sim.Time(int64(2 * time.Millisecond)))
	if sys.provisioned != 1 {
		t.Fatalf("provisioned = %d after idle period, want 1", sys.provisioned)
	}
}

func TestElasticKeepsFewCoresBusyAtLowLoad(t *testing.T) {
	// The eRSS pitch: at low load, most cores stay unprovisioned (idle
	// and reusable). Mean idle fraction across all 8 cores must stay very
	// high for a load one core can handle.
	_, sys, eng := run(t, elastic(8), 50_000, dist.Fixed{D: 5 * time.Microsecond}, nil, 4000)
	if idle := sys.WorkerIdleFraction(eng.Now()); idle < 0.85 {
		t.Fatalf("idle fraction %v, want ≥ 0.85 (cores should be deprovisioned)", idle)
	}
	if sys.provisioned > 3 {
		t.Fatalf("provisioned = %d at trivial load", sys.provisioned)
	}
}

func TestElasticCompletesEverythingWhileResizing(t *testing.T) {
	// Requests hashed to a core that later gets deprovisioned must still
	// complete (the core drains its queue); run fails on any drop.
	_, sys, _ := run(t, elastic(6), 400_000, dist.Exponential{M: 5 * time.Microsecond}, nil, 12000)
	if sys.Completions() < 12000 {
		t.Fatalf("completions = %d", sys.Completions())
	}
}

func TestElasticNoPreemptionHeadOfLineBlocking(t *testing.T) {
	// eRSS fixes provisioning, not blocking: a long request still blocks
	// shorts on its core.
	rec, _, _ := run(t, elastic(4), 300_000,
		dist.Bimodal{P1: 0.99, D1: 2 * time.Microsecond, D2: 300 * time.Microsecond}, nil, 8000)
	if rec.Preemptions() != 0 {
		t.Fatal("erss must never preempt")
	}
	if rec.Latency.P99() < 100*time.Microsecond {
		t.Fatalf("p99 = %v; expected head-of-line blocking to push it high", rec.Latency.P99())
	}
}

func TestElasticValidationAndDefaults(t *testing.T) {
	eng := sim.New()
	for _, f := range []func(){
		func() { New(eng, Config{P: params.Default(), Steering: SteerElastic}, nil, func(*task.Request) {}) },
		func() { New(eng, elastic(1), nil, nil) },
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
	sys := New(eng, elastic(2), nil, func(*task.Request) {})
	if sys.provisioned != minWorkers {
		t.Fatalf("starts with %d cores provisioned, want %d", sys.provisioned, minWorkers)
	}
}
