package rpcvalet

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

func run(t *testing.T, workers int, rps float64, svc dist.Distribution, measure int) (*stats.Recorder, *Valet, *sim.Engine) {
	t.Helper()
	return systest.Run(t, func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) *Valet {
		return New(eng, Config{P: params.Default(), Workers: workers}, pr, done)
	}, loadgen.Config{RPS: rps, Service: svc, Seed: 3}, measure)
}

func TestLowLatencyFloor(t *testing.T) {
	// The integrated NI adds almost nothing beyond the wire: its floor
	// must be below both Shinjuku's and the Offload's.
	eng := sim.New()
	p := params.Default()
	var doneAt sim.Time
	sys := New(eng, Config{P: p, Workers: 1}, nil, func(*task.Request) { doneAt = eng.Now() })
	sys.Inject(task.New(1, 0, time.Microsecond))
	eng.Run()
	floor := 2*p.ClientWireOneWay + time.Microsecond
	lat := doneAt.Duration()
	if lat < floor {
		t.Fatalf("latency %v below physical floor %v", lat, floor)
	}
	if lat > floor+time.Microsecond {
		t.Fatalf("latency %v too high for an integrated NI (floor %v)", lat, floor)
	}
}

func TestCentralQueueEliminatesImbalance(t *testing.T) {
	// Single queue: at moderate load every worker shares evenly.
	_, sys, _ := run(t, 4, 800_000, dist.Fixed{D: time.Microsecond}, 8000)
	min, max := uint64(1<<62), uint64(0)
	for _, w := range sys.Workers {
		c := w.Exec.Completions()
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max-min) > 0.2*float64(max) {
		t.Fatalf("imbalance across workers: min=%d max=%d", min, max)
	}
}

func TestHeadOfLineBlockingOnDispersiveLoad(t *testing.T) {
	// §2.2: lacking preemption, RPCValet's tail explodes on the bimodal
	// workload relative to its uniform-workload tail at equal utilization.
	uniform, _, _ := run(t, 2, 300_000, dist.Fixed{D: 5 * time.Microsecond}, 6000)
	// Same mean (≈5.475µs → use 5.5µs-mean bimodal at matching rate).
	bimodal, _, _ := run(t, 2, 300_000,
		dist.Bimodal{P1: 0.995, D1: 5 * time.Microsecond, D2: 100 * time.Microsecond}, 6000)
	if bimodal.Latency.P99() < 2*uniform.Latency.P99() {
		t.Fatalf("bimodal p99 %v not ≫ uniform p99 %v (expected head-of-line blowup)",
			bimodal.Latency.P99(), uniform.Latency.P99())
	}
	if bimodal.Preemptions() != 0 {
		t.Fatal("rpcvalet must never preempt")
	}
}

func TestHighThroughputHardwareQueue(t *testing.T) {
	// The ASIC queue (40ns/op) must sustain millions of req/s — far above
	// the offloaded ARM dispatcher.
	rec, _, eng := run(t, 16, 8_000_000, dist.Fixed{D: time.Microsecond}, 20000)
	if got := rec.Throughput(eng.Now()); got < 5_000_000 {
		t.Fatalf("throughput %.0f, want > 5M (hardware queue)", got)
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
	sys := New(eng, Config{P: params.Default(), Workers: 2}, nil, func(*task.Request) {})
	if sys.Name() != "rpcvalet" {
		t.Fatalf("Name = %q", sys.Name())
	}
	if sys.QueueLen() != 0 {
		t.Fatal("fresh queue not empty")
	}
}
