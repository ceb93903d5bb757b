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

func TestNames(t *testing.T) {
	eng := sim.New()
	done := func(*task.Request) {}
	p := params.Default()
	if got := New(eng, Config{P: p, Workers: 1}, nil, done).Name(); got != "rss" {
		t.Fatalf("Name = %q", got)
	}
	if got := New(eng, Config{P: p, Workers: 1, WorkStealing: true}, nil, done).Name(); got != "zygos" {
		t.Fatalf("Name = %q", got)
	}
	if got := New(eng, Config{P: p, Workers: 1, Steering: SteerKey}, nil, done).Name(); got != "flow-director" {
		t.Fatalf("Name = %q", got)
	}
	if got := New(eng, Config{P: p, Workers: 1, NameOverride: "ix"}, nil, done).Name(); got != "ix" {
		t.Fatalf("Name = %q", got)
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

func TestBoundedQueuesDrop(t *testing.T) {
	eng := sim.New()
	rec := &stats.Recorder{}
	rec.Arm(0)
	sys := New(eng, Config{P: params.Default(), Workers: 1, QueueCap: 2}, &probe.Probe{Rec: rec}, func(*task.Request) {})
	// Burst of simultaneous arrivals at one instant: queue cap 2 forces
	// drops once the backlog exceeds it.
	for i := uint64(0); i < 10; i++ {
		sys.Inject(task.New(i, 0, 100*time.Microsecond))
	}
	eng.Run()
	if rec.Dropped() == 0 {
		t.Fatal("no drops despite bounded queue and burst")
	}
	if got := sys.Completions() + uint64(rec.Dropped()); got != 10 {
		t.Fatalf("completions+drops = %d, want 10", got)
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

func TestQueueLensSnapshot(t *testing.T) {
	eng := sim.New()
	sys := New(eng, Config{P: params.Default(), Workers: 3}, nil, func(*task.Request) {})
	if got := sys.QueueLens(); len(got) != 3 {
		t.Fatalf("QueueLens = %v", got)
	}
	if sys.String() == "" {
		t.Fatal("empty String()")
	}
}
