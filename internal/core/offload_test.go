package core

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
	"mindgap/internal/trace"
)

// runOffload drives an Offload system with an open-loop workload and
// returns the recorder after `measure` completions (no warmup here; the
// experiment harness handles warmup for real runs).
func runOffload(t *testing.T, cfg OffloadConfig, rps float64, svc dist.Distribution, measure int) (*stats.Recorder, *Offload, *sim.Engine) {
	t.Helper()
	return systest.Run(t, func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) *Offload {
		return NewOffload(eng, cfg, pr, done)
	}, loadgen.Config{RPS: rps, Service: svc, Seed: 42}, measure)
}

func defaultCfg(workers, k int, slice time.Duration) OffloadConfig {
	return OffloadConfig{
		P:           params.Default(),
		Workers:     workers,
		Outstanding: k,
		Slice:       slice,
		Policy:      LeastOutstanding,
	}
}

func TestOffloadSingleRequestPath(t *testing.T) {
	eng := sim.New()
	p := params.Default()
	var doneAt sim.Time
	var done *task.Request
	sys := NewOffload(eng, defaultCfg(1, 1, 0), nil, func(r *task.Request) {
		done = r
		doneAt = eng.Now()
	})
	req := task.New(1, 0, time.Microsecond)
	sys.Inject(req)
	eng.Run()
	if done != req || !req.Done() {
		t.Fatal("request did not complete")
	}
	lat := doneAt.Duration()
	// Lower bound: two client wire hops, one NIC→host dispatch hop (the
	// response goes straight from the worker to the wire; the FINISH
	// notification is off the latency path), and the service time.
	floor := 2*p.ClientWireOneWay + p.NicHostOneWay + time.Microsecond
	if lat < floor {
		t.Fatalf("latency %v below physical floor %v", lat, floor)
	}
	// Upper bound: floor plus all per-stage costs with generous slack.
	if lat > floor+4*time.Microsecond {
		t.Fatalf("latency %v too far above floor %v", lat, floor)
	}
	if req.Assignments != 1 || req.Preemptions != 0 {
		t.Fatalf("assignments=%d preemptions=%d", req.Assignments, req.Preemptions)
	}
}

func TestOffloadPreemptionProtectsShortRequests(t *testing.T) {
	// One 100µs request then a stream of 5µs requests on one worker. With
	// a 10µs slice the short requests must not wait for the long one.
	eng := sim.New()
	cfg := defaultCfg(1, 2, 10*time.Microsecond)
	var latencies = map[uint64]time.Duration{}
	sys := NewOffload(eng, cfg, nil, func(r *task.Request) {
		latencies[r.ID] = r.Latency(eng.Now())
	})
	long := task.New(1, 0, 100*time.Microsecond)
	sys.Inject(long)
	for i := uint64(2); i <= 4; i++ {
		i := i
		eng.After(time.Duration(i)*time.Microsecond, func() {
			sys.Inject(task.New(i, eng.Now(), 5*time.Microsecond))
		})
	}
	eng.Run()
	if len(latencies) != 4 {
		t.Fatalf("completions = %d", len(latencies))
	}
	if long.Preemptions == 0 {
		t.Fatal("long request never preempted")
	}
	for id := uint64(2); id <= 4; id++ {
		// Without preemption a short request behind 100µs of work would
		// see ≥100µs; with 10µs slices it must stay far below that.
		if latencies[id] >= 100*time.Microsecond {
			t.Fatalf("short request %d latency %v: head-of-line blocked", id, latencies[id])
		}
	}
	// The long request must still finish, paying for its preemptions.
	if latencies[1] < 100*time.Microsecond {
		t.Fatalf("long request latency %v impossibly low", latencies[1])
	}
}

func TestOffloadNoPreemptionWhenSliceZero(t *testing.T) {
	rec, _, _ := runOffload(t, defaultCfg(2, 2, 0),
		200_000, dist.Fixed{D: 5 * time.Microsecond}, 2000)
	if rec.Preemptions() != 0 {
		t.Fatalf("preemptions = %d with slice disabled", rec.Preemptions())
	}
}

func TestOffloadQueuingOptimizationThroughput(t *testing.T) {
	// Figure 3 mechanism: at saturation, k=5 must beat k=1 substantially
	// for a small worker count (paper: +250%).
	measure := 4000
	throughput := func(k int) float64 {
		rec, _, eng := runOffload(t, defaultCfg(4, k, 0),
			3_000_000, // far beyond capacity: saturating load
			dist.Fixed{D: time.Microsecond}, measure)
		return rec.Throughput(eng.Now())
	}
	t1 := throughput(1)
	t5 := throughput(5)
	if t5 < 2*t1 {
		t.Fatalf("k=5 throughput %.0f not ≥ 2× k=1 throughput %.0f", t5, t1)
	}
}

func TestOffloadDispatcherIsBottleneckAtHighWorkerCount(t *testing.T) {
	// Figure 6 mechanism: with 16 workers and 1µs requests the ARM
	// dispatcher caps throughput well below the worker pool capacity.
	p := params.Default()
	rec, sys, eng := runOffload(t, defaultCfg(16, 5, 0),
		5_000_000, dist.Fixed{D: time.Microsecond}, 8000)
	got := rec.Throughput(eng.Now())
	cap := float64(time.Second) / float64(p.ArmStageMax())
	if got > 1.15*cap {
		t.Fatalf("throughput %.0f exceeds dispatcher cap %.0f", got, cap)
	}
	if got < 0.6*cap {
		t.Fatalf("throughput %.0f far below dispatcher cap %.0f", got, cap)
	}
	// Workers must be mostly idle — they are starved by the dispatcher.
	if idle := sys.WorkerIdleFraction(eng.Now()); idle < 0.5 {
		t.Fatalf("worker idle fraction %v, want > 0.5 (dispatcher-bound)", idle)
	}
}

func TestOffloadWorkersSaturateWhenDispatcherIsNot(t *testing.T) {
	// With 100µs requests (Figure 5 regime) the dispatcher load is tiny
	// and workers should be nearly fully busy at saturating load.
	_, sys, eng := runOffload(t, defaultCfg(4, 2, 0),
		200_000, dist.Fixed{D: 100 * time.Microsecond}, 2000)
	if idle := sys.WorkerIdleFraction(eng.Now()); idle > 0.15 {
		t.Fatalf("worker idle fraction %v, want < 0.15 (worker-bound)", idle)
	}
}

func TestOffloadLatencyRisesWithLoad(t *testing.T) {
	p99 := func(rps float64) time.Duration {
		rec, _, _ := runOffload(t, defaultCfg(4, 4, 10*time.Microsecond),
			rps, dist.Bimodal{P1: 0.995, D1: 5 * time.Microsecond, D2: 100 * time.Microsecond}, 4000)
		return rec.Latency.P99()
	}
	low := p99(50_000)
	high := p99(600_000)
	if high <= low {
		t.Fatalf("p99 did not rise with load: low=%v high=%v", low, high)
	}
}

func TestOffloadInformedPolicyWithFeedback(t *testing.T) {
	cfg := defaultCfg(4, 3, 0)
	cfg.Policy = InformedLeastLoaded
	rec, _, eng := runOffload(t, cfg, 400_000, dist.Fixed{D: 5 * time.Microsecond}, 3000)
	if rec.Completed() != 3000 {
		t.Fatalf("completed = %d", rec.Completed())
	}
	if rec.Throughput(eng.Now()) < 300_000 {
		t.Fatalf("informed policy throughput collapsed: %.0f", rec.Throughput(eng.Now()))
	}
}

func TestOffloadDirectInterruptAblation(t *testing.T) {
	// §5.1(3): NIC-posted interrupts instead of self-armed timers. The
	// system must still preempt and complete everything.
	eng := sim.New()
	cfg := defaultCfg(2, 2, 10*time.Microsecond)
	cfg.DirectInterrupts = true
	rec := &stats.Recorder{}
	rec.Arm(0)
	completed := 0
	sys := NewOffload(eng, cfg, &probe.Probe{Rec: rec}, func(r *task.Request) { completed++ })
	for i := uint64(1); i <= 4; i++ {
		sys.Inject(task.New(i, 0, 35*time.Microsecond))
	}
	eng.Run()
	if completed != 4 {
		t.Fatalf("completed = %d", completed)
	}
	if rec.Preemptions() == 0 {
		t.Fatal("no preemptions under direct-interrupt ablation")
	}
}

func TestOffloadAblationNames(t *testing.T) {
	cfg := defaultCfg(1, 1, 0)
	if got := NewOffload(sim.New(), cfg, nil, func(*task.Request) {}).Name(); got != "shinjuku-offload" {
		t.Errorf("Name() = %q, want shinjuku-offload", got)
	}
	cfg.DirectInterrupts = true
	if got := NewOffload(sim.New(), cfg, nil, func(*task.Request) {}).Name(); got != "idealnic/directirq" {
		t.Errorf("Name() = %q, want idealnic/directirq", got)
	}
}

func TestOffloadConstructorValidation(t *testing.T) {
	eng := sim.New()
	done := func(*task.Request) {}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero workers did not panic")
			}
		}()
		NewOffload(eng, OffloadConfig{P: params.Default()}, nil, done)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil done did not panic")
			}
		}()
		NewOffload(eng, defaultCfg(1, 1, 0), nil, nil)
	}()
	// Outstanding defaults to 1.
	sys := NewOffload(eng, OffloadConfig{P: params.Default(), Workers: 1}, nil, done)
	if sys.lgc.CreditLimit() != 1 {
		t.Fatalf("default credit limit = %d", sys.lgc.CreditLimit())
	}
}

func TestOffloadTracesAreCausallyValid(t *testing.T) {
	// Run a preemption-heavy workload with full tracing and validate every
	// request's lifecycle: no request starts before dispatch, completes
	// twice, responds before completing, etc.
	eng := sim.New()
	cfg := defaultCfg(3, 2, 10*time.Microsecond)
	buf := trace.New(0)
	completions := 0
	sys := NewOffload(eng, cfg, &probe.Probe{Trace: buf}, func(*task.Request) {
		completions++
		if completions >= 2000 {
			eng.Halt()
		}
	})
	loadgen.New(eng, loadgen.Config{
		RPS:     300_000,
		Service: dist.Bimodal{P1: 0.95, D1: 3 * time.Microsecond, D2: 60 * time.Microsecond},
		Seed:    8,
	}, sys.Inject).Start()
	eng.Run()
	if completions < 2000 {
		t.Fatalf("completions = %d", completions)
	}
	if err := buf.ValidateAll(); err != nil {
		t.Fatal(err)
	}
	// At least one request must show a full preemption cycle in its trace.
	sawPreempt := false
	for _, id := range buf.Requests() {
		for _, e := range buf.Lifecycle(id) {
			if e.Kind == trace.Preempt {
				sawPreempt = true
			}
		}
	}
	if !sawPreempt {
		t.Fatal("no preemption events traced despite 60µs requests at 10µs slice")
	}
}

func TestOffloadQueueDynamicsAfterBurst(t *testing.T) {
	// Inject a 200-request burst into an idle 4-worker system and watch
	// the central queue with a sampler: it must spike and then settle to
	// zero within the work's drain time plus pipeline overheads.
	eng := sim.New()
	sys := NewOffload(eng, defaultCfg(4, 2, 0), nil, func(*task.Request) {})
	// peak is the deepest sample, settled the first sample from which the
	// queue stays empty (-1 while it is not).
	peak, settled := 0, sim.Time(-1)
	var sample func()
	sample = func() {
		switch d := sys.QueueLen(); {
		case d > 0:
			peak, settled = max(peak, d), -1
		case settled < 0:
			settled = eng.Now()
		}
		eng.After(5*time.Microsecond, sample)
	}
	sample()
	const n = 200
	svc := 5 * time.Microsecond
	for i := uint64(1); i <= n; i++ {
		sys.Inject(task.New(i, 0, svc))
	}
	eng.RunUntil(sim.Time(int64(2 * time.Millisecond)))
	if peak < 100 {
		t.Fatalf("queue never spiked: max depth %v", peak)
	}
	if settled < 0 {
		t.Fatal("queue never drained")
	}
	// Ideal drain: 200 × 5µs / 4 workers = 250µs; allow pipeline slack.
	if settled.Duration() > 500*time.Microsecond {
		t.Fatalf("queue settled at %v, want ≤ 500µs", settled)
	}
}

func TestOffloadDispatchBurstDelaysCreditsUnderFlood(t *testing.T) {
	// The Figure 3 burst ablation mechanism: with k=1 and a saturating
	// flood, burst processing of new arrivals delays credit handling and
	// lowers throughput versus fair alternation.
	tput := func(burst int) float64 {
		eng := sim.New()
		cfg := defaultCfg(4, 1, 0)
		cfg.DispatchBurst = burst
		completions := 0
		var armedAt sim.Time
		sys := NewOffload(eng, cfg, nil, func(*task.Request) {
			completions++
			if completions == 1000 {
				armedAt = eng.Now()
			}
			if completions >= 5000 {
				eng.Halt()
			}
		})
		gen := loadgen.New(eng, loadgen.Config{
			RPS: 3_000_000, Service: dist.Fixed{D: time.Microsecond}, Seed: 4,
		}, sys.Inject)
		gen.Start()
		eng.Run()
		return 4000 / eng.Now().Sub(armedAt).Seconds()
	}
	fair := tput(1)
	burst := tput(16)
	if burst >= 0.85*fair {
		t.Fatalf("burst=16 throughput %.0f not meaningfully below fair %.0f at k=1", burst, fair)
	}
}

func TestOffloadPreemptedRequestMigratesWorkers(t *testing.T) {
	// A preempted request can resume on a different worker (§3.4.1).
	eng := sim.New()
	cfg := defaultCfg(2, 1, 10*time.Microsecond)
	migrated := false
	sys := NewOffload(eng, cfg, nil, func(r *task.Request) {
		if r.Preemptions > 0 && r.Assignments > 1 {
			migrated = true
		}
	})
	// Two long requests keep both workers busy; preemption shuffles them
	// through the central queue.
	for i := uint64(1); i <= 3; i++ {
		sys.Inject(task.New(i, 0, 40*time.Microsecond))
	}
	eng.Run()
	if !migrated {
		t.Fatal("no preempted request was reassigned")
	}
}
