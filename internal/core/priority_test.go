package core

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/sim"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
)

// classBySvc classifies by service time: < 10µs is latency-critical.
func classBySvc(r *task.Request) int {
	if r.Service < 10*time.Microsecond {
		return 0
	}
	return 1
}

// classful builds a Logic whose central queue is split into strict
// priority classes.
func classful(workers, k, classes int, policy Policy, classOf func(*task.Request) int) *Logic {
	l := NewLogic(workers, k, policy)
	l.SetClasses(classes, classOf)
	return l
}

func TestPriorityLogicStrictOrder(t *testing.T) {
	l := classful(1, 1, 2, LeastOutstanding, classBySvc)
	long := task.New(1, 0, 100*time.Microsecond)
	as := l.EnqueueTo(nil, 0, long) // assigned immediately
	if len(as) != 1 {
		t.Fatalf("assignments = %v", as)
	}
	// Queue a low-priority and then a high-priority request.
	lp := task.New(2, 0, 50*time.Microsecond)
	hp := task.New(3, 0, time.Microsecond)
	l.EnqueueTo(nil, 0, lp)
	l.EnqueueTo(nil, 0, hp)
	if l.classes[0].Len() != 1 || l.classes[1].Len() != 1 {
		t.Fatalf("class queues: %d/%d", l.classes[0].Len(), l.classes[1].Len())
	}
	// The high-priority request must dispatch first despite arriving last.
	as = l.CompleteTo(nil, 0)
	if len(as) != 1 || as[0].Req.ID != 3 {
		t.Fatalf("dispatched %v, want high-priority id 3", as)
	}
	as = l.CompleteTo(nil, 0)
	if len(as) != 1 || as[0].Req.ID != 2 {
		t.Fatalf("dispatched %v, want id 2", as)
	}
}

func TestPriorityLogicPreemptedKeepsClass(t *testing.T) {
	l := classful(1, 1, 2, LeastOutstanding, classBySvc)
	long := task.New(1, 0, 100*time.Microsecond)
	l.EnqueueTo(nil, 0, long)
	l.EnqueueTo(nil, 0, task.New(2, 0, 30*time.Microsecond)) // low prio queued
	// Preempting the long request requeues it in class 1 behind id 2.
	as := l.PreemptedTo(nil, 5, 0, long)
	if len(as) != 1 || as[0].Req.ID != 2 {
		t.Fatalf("dispatched %v, want id 2", as)
	}
	as = l.CompleteTo(nil, 0)
	if len(as) != 1 || as[0].Req.ID != 1 {
		t.Fatalf("dispatched %v, want requeued id 1", as)
	}
}

func TestPriorityLogicClampsClasses(t *testing.T) {
	l := classful(1, 1, 2, LeastOutstanding, func(r *task.Request) int {
		return int(r.ID) - 10 // produces negative and overflowing classes
	})
	l.EnqueueTo(nil, 0, task.New(1, 0, time.Microsecond))  // class -9 → 0
	l.EnqueueTo(nil, 0, task.New(99, 0, time.Microsecond)) // class 89 → 1
	if l.QueueLen() != 1 {                                 // one assigned, one queued
		t.Fatalf("QueueLen = %d", l.QueueLen())
	}
}

func TestPriorityLogicValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero classes did not panic")
		}
	}()
	classful(1, 1, 0, LeastOutstanding, nil)
}

func TestPriorityLogicNilClassOfDefaults(t *testing.T) {
	l := classful(2, 1, 3, LeastOutstanding, nil)
	as := l.EnqueueTo(nil, 0, task.New(1, 0, time.Microsecond))
	if len(as) != 1 {
		t.Fatalf("assignments = %v", as)
	}
	if len(l.classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(l.classes))
	}
}

// Property: conservation holds for a classful Logic exactly as for one queue.
func TestQuickPriorityLogicConservation(t *testing.T) {
	f := func(seed uint64, classesRaw, kRaw uint8, steps uint16) bool {
		classes := int(classesRaw%4) + 1
		k := int(kRaw%3) + 1
		const workers = 3
		rng := rand.New(rand.NewPCG(seed, 99))
		l := classful(workers, k, classes, LeastOutstanding, func(r *task.Request) int {
			return int(r.ID % uint64(classes))
		})
		inFlight := make([]map[uint64]*task.Request, workers)
		for i := range inFlight {
			inFlight[i] = map[uint64]*task.Request{}
		}
		nextID := uint64(1)
		admitted, finished := 0, 0
		apply := func(as []Assignment) bool {
			for _, a := range as {
				if a.Req == nil || a.Worker < 0 || a.Worker >= workers {
					return false
				}
				if _, dup := inFlight[a.Worker][a.Req.ID]; dup {
					return false
				}
				inFlight[a.Worker][a.Req.ID] = a.Req
			}
			return true
		}
		for s := 0; s < int(steps%400); s++ {
			switch rng.IntN(3) {
			case 0:
				if !apply(l.EnqueueTo(nil, 0, task.New(nextID, 0, time.Microsecond))) {
					return false
				}
				nextID++
				admitted++
			case 1:
				w := rng.IntN(workers)
				if len(inFlight[w]) == 0 {
					continue
				}
				for id := range inFlight[w] {
					delete(inFlight[w], id)
					break
				}
				finished++
				if !apply(l.CompleteTo(nil, w)) {
					return false
				}
			case 2:
				w := rng.IntN(workers)
				if len(inFlight[w]) == 0 {
					continue
				}
				var victim *task.Request
				for id, r := range inFlight[w] {
					victim = r
					delete(inFlight[w], id)
					break
				}
				if !apply(l.PreemptedTo(nil, 0, w, victim)) {
					return false
				}
			}
			carried := 0
			for w := 0; w < workers; w++ {
				if l.Outstanding(w) < 0 || l.Outstanding(w) > k ||
					l.Outstanding(w) != len(inFlight[w]) {
					return false
				}
				carried += l.Outstanding(w)
			}
			if admitted != finished+carried+l.QueueLen() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadWithPriorityClasses(t *testing.T) {
	// End-to-end: latency-critical class must see far lower p99 than the
	// batch class on a shared Offload server.
	eng := sim.New()
	cfg := defaultCfg(2, 2, 20*time.Microsecond)
	cfg.PriorityClasses = 2
	cfg.ClassOf = classBySvc
	var hiMax, loMax time.Duration
	completions := 0
	sys := NewOffload(eng, cfg, nil, func(r *task.Request) {
		lat := r.Latency(eng.Now())
		if classBySvc(r) == 0 {
			if lat > hiMax {
				hiMax = lat
			}
		} else if lat > loMax {
			loMax = lat
		}
		completions++
		if completions >= 8000 {
			eng.Halt()
		}
	})
	sys.ArmWorkerTrackers(0)
	// 90% 2µs critical + 10% 80µs batch at ρ≈0.8 on 2 workers.
	mix := dist.NewMixture([]float64{0.9, 0.1}, []dist.Distribution{
		dist.Fixed{D: 2 * time.Microsecond}, dist.Fixed{D: 80 * time.Microsecond},
	})
	loadgen.New(eng, loadgen.Config{RPS: 160_000, Service: mix, Seed: 13}, sys.Inject).Start()
	eng.Run()
	if completions < 8000 {
		t.Fatalf("completions = %d", completions)
	}
	if hiMax >= loMax {
		t.Fatalf("critical class max %v not below batch class max %v", hiMax, loMax)
	}
	if hiMax > 200*time.Microsecond {
		t.Fatalf("critical class max latency %v too high under strict priority", hiMax)
	}
}

func TestOffloadAdmissionControlBoundsTail(t *testing.T) {
	// §5.2 co-design: with a bounded central queue the NIC sheds overload
	// and the accepted requests keep a bounded tail, at the cost of loss.
	run := func(limit int) (p99 time.Duration, shed uint64) {
		eng := sim.New()
		cfg := defaultCfg(2, 1, 0)
		cfg.AdmissionLimit = limit
		var worst time.Duration
		completions := 0
		var sys *Offload
		sys = NewOffload(eng, cfg, nil, func(r *task.Request) {
			if lat := r.Latency(eng.Now()); lat > worst {
				worst = lat
			}
			completions++
			if completions >= 5000 {
				eng.Halt()
			}
		})
		loadgen.New(eng, loadgen.Config{
			RPS: 600_000, Service: dist.Fixed{D: 5 * time.Microsecond}, Seed: 21,
		}, sys.Inject).Start() // ~1.7× overload for 2 workers
		eng.Run()
		return worst, sys.Shed()
	}
	boundedWorst, shed := run(64)
	unboundedWorst, noShed := run(0)
	if shed == 0 {
		t.Fatal("admission control shed nothing under overload")
	}
	if noShed != 0 {
		t.Fatalf("unbounded system shed %d requests", noShed)
	}
	if boundedWorst >= unboundedWorst/2 {
		t.Fatalf("bounded worst %v not ≪ unbounded worst %v", boundedWorst, unboundedWorst)
	}
}

// Property: classes are only a queue-selection rule. A Logic told it has
// one class (whatever classOf says) emits exactly the assignment sequence
// of a plain NewLogic on any enqueue/complete/preempt/load-report script,
// under every policy, with and without affinity.
func TestQuickOneClassMatchesPlainLogic(t *testing.T) {
	f := func(seed uint64, workersRaw, kRaw uint8, affinity bool, steps uint16) bool {
		workers := int(workersRaw%6) + 1
		k := int(kRaw%4) + 1
		for _, policy := range []Policy{LeastOutstanding, RoundRobin, InformedLeastLoaded} {
			rng := rand.New(rand.NewPCG(seed, uint64(policy)))
			plain := NewLogic(workers, k, policy)
			one := classful(workers, k, 1, policy, func(r *task.Request) int { return int(r.ID%5) - 2 })
			if affinity {
				plain.EnableAffinity()
				one.EnableAffinity()
			}
			inFlight := make([][]*task.Request, workers)
			same := func(a, b []Assignment) bool {
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
					r := a[i].Req
					r.LastWorker = a[i].Worker
					inFlight[a[i].Worker] = append(inFlight[a[i].Worker], r)
				}
				return true
			}
			take := func(w int) *task.Request {
				n := len(inFlight[w])
				if n == 0 {
					return nil
				}
				i := rng.IntN(n)
				r := inFlight[w][i]
				inFlight[w] = append(inFlight[w][:i], inFlight[w][i+1:]...)
				return r
			}
			nextID := uint64(1)
			for s := 0; s < int(steps%400); s++ {
				now := sim.Time(s + 1)
				w := rng.IntN(workers)
				switch rng.IntN(4) {
				case 0:
					r := task.New(nextID, now, time.Microsecond)
					nextID++
					if !same(plain.EnqueueTo(nil, now, r), one.EnqueueTo(nil, now, r)) {
						return false
					}
				case 1:
					if take(w) != nil && !same(plain.CompleteTo(nil, w), one.CompleteTo(nil, w)) {
						return false
					}
				case 2:
					if r := take(w); r != nil {
						r.Preemptions++
						if !same(plain.PreemptedTo(nil, now, w, r), one.PreemptedTo(nil, now, w, r)) {
							return false
						}
					}
				case 3:
					load := rng.Int64N(1_000_000)
					plain.ReportLoadAt(now, w, load)
					one.ReportLoadAt(now, w, load)
				}
				if plain.QueueLen() != one.QueueLen() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLogicGaugeSet pins the sched/* registry surface: a Logic registers
// exactly the two decision counters the benchmark ledger reads, classful or
// not — no per-class or queue key may leak into it.
func TestLogicGaugeSet(t *testing.T) {
	keys := func(l *Logic) []string {
		reg := telemetry.NewRegistry()
		l.RegisterTelemetry(reg, "sched")
		var out []string
		for k := range reg.Snapshot().Gauges {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	want := []string{"sched/assigned", "sched/scan_steps"}
	if got := keys(NewLogic(2, 1, LeastOutstanding)); !slices.Equal(got, want) {
		t.Fatalf("plain Logic gauges = %v, want %v", got, want)
	}
	if got := keys(classful(2, 1, 2, LeastOutstanding, nil)); !slices.Equal(got, want) {
		t.Fatalf("two-class Logic gauges = %v, want %v", got, want)
	}
}
