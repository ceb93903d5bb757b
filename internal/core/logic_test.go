package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"mindgap/internal/task"
)

func req(id uint64) *task.Request { return task.New(id, 0, time.Microsecond) }

func TestLogicImmediateAssign(t *testing.T) {
	l := NewLogic(2, 1, LeastOutstanding)
	as := l.EnqueueTo(nil, 0, req(1))
	if len(as) != 1 || as[0].Req.ID != 1 {
		t.Fatalf("assignments = %v", as)
	}
	if l.Outstanding(as[0].Worker) != 1 {
		t.Fatal("credit not charged")
	}
	if l.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestLogicCreditExhaustion(t *testing.T) {
	l := NewLogic(2, 1, LeastOutstanding)
	for i := uint64(1); i <= 2; i++ {
		if got := l.EnqueueTo(nil, 0, req(i)); len(got) != 1 {
			t.Fatalf("req %d assignments = %v", i, got)
		}
	}
	// Both workers at k=1: third request queues.
	if got := l.EnqueueTo(nil, 0, req(3)); len(got) != 0 {
		t.Fatalf("over-capacity assignment: %v", got)
	}
	if l.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d", l.QueueLen())
	}
	// Completion frees a credit and dispatches the queued request.
	as := l.CompleteTo(nil, 0)
	if len(as) != 1 || as[0].Req.ID != 3 || as[0].Worker != 0 {
		t.Fatalf("post-completion assignments = %v", as)
	}
}

func TestLogicFIFOOrder(t *testing.T) {
	l := NewLogic(1, 1, LeastOutstanding)
	l.EnqueueTo(nil, 0, req(1))
	l.EnqueueTo(nil, 0, req(2))
	l.EnqueueTo(nil, 0, req(3))
	for want := uint64(2); want <= 3; want++ {
		as := l.CompleteTo(nil, 0)
		if len(as) != 1 || as[0].Req.ID != want {
			t.Fatalf("FIFO violated: got %v want id %d", as, want)
		}
	}
}

func TestLogicQueuingOptimizationStashing(t *testing.T) {
	// k=5: a single worker accepts five outstanding requests (§3.4.5).
	l := NewLogic(1, 5, LeastOutstanding)
	for i := uint64(1); i <= 7; i++ {
		l.EnqueueTo(nil, 0, req(i))
	}
	if l.Outstanding(0) != 5 {
		t.Fatalf("outstanding = %d, want 5", l.Outstanding(0))
	}
	if l.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", l.QueueLen())
	}
}

func TestLogicPreemptedRequeuesAtTail(t *testing.T) {
	l := NewLogic(1, 1, LeastOutstanding)
	r1 := req(1)
	l.EnqueueTo(nil, 0, r1) // assigned
	l.EnqueueTo(nil, 0, req(2))
	l.EnqueueTo(nil, 0, req(3))
	// Worker preempts r1: r1 goes behind 2 and 3.
	as := l.PreemptedTo(nil, 100, 0, r1)
	if len(as) != 1 || as[0].Req.ID != 2 {
		t.Fatalf("post-preemption dispatch = %v, want id 2", as)
	}
	as = l.CompleteTo(nil, 0)
	if as[0].Req.ID != 3 {
		t.Fatalf("next = %v, want id 3", as)
	}
	as = l.CompleteTo(nil, 0)
	if as[0].Req.ID != 1 {
		t.Fatalf("requeued preempted request not at tail: %v", as)
	}
	if r1.Enqueued != 100 {
		t.Fatalf("Enqueued = %v, want 100", r1.Enqueued)
	}
}

func TestLogicPreferIdleWorker(t *testing.T) {
	l := NewLogic(3, 2, LeastOutstanding)
	a1 := l.EnqueueTo(nil, 0, req(1))
	a2 := l.EnqueueTo(nil, 0, req(2))
	a3 := l.EnqueueTo(nil, 0, req(3))
	// Three requests must land on three distinct workers before any worker
	// gets a second one.
	seen := map[int]bool{a1[0].Worker: true, a2[0].Worker: true, a3[0].Worker: true}
	if len(seen) != 3 {
		t.Fatalf("requests not spread across idle workers: %v %v %v", a1, a2, a3)
	}
}

func TestLogicRoundRobinFairness(t *testing.T) {
	l := NewLogic(4, 8, RoundRobin)
	counts := make([]int, 4)
	for i := uint64(0); i < 16; i++ {
		as := l.EnqueueTo(nil, 0, req(i))
		counts[as[0].Worker]++
	}
	for w, c := range counts {
		if c != 4 {
			t.Fatalf("worker %d got %d requests, want 4 (round robin)", w, c)
		}
	}
}

func TestLogicInformedSelection(t *testing.T) {
	l := NewLogic(3, 4, InformedLeastLoaded)
	l.ReportLoadAt(0, 0, 50_000)
	l.ReportLoadAt(0, 1, 1_000)
	l.ReportLoadAt(0, 2, 90_000)
	as := l.EnqueueTo(nil, 0, req(1))
	if as[0].Worker != 1 {
		t.Fatalf("informed policy picked worker %d, want 1 (least loaded)", as[0].Worker)
	}
}

func TestLogicInformedFallsBackToOutstanding(t *testing.T) {
	l := NewLogic(2, 4, InformedLeastLoaded)
	// No load reports: behaves like least-outstanding.
	a1 := l.EnqueueTo(nil, 0, req(1))
	a2 := l.EnqueueTo(nil, 0, req(2))
	if a1[0].Worker == a2[0].Worker {
		t.Fatal("informed fallback did not spread load")
	}
}

func TestLogicCreditUnderflowPanics(t *testing.T) {
	l := NewLogic(1, 1, LeastOutstanding)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete without outstanding did not panic")
		}
	}()
	l.CompleteTo(nil, 0)
}

func TestLogicConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewLogic(0, 1, LeastOutstanding) },
		func() { NewLogic(1, 0, LeastOutstanding) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid constructor did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []Policy{LeastOutstanding, RoundRobin, InformedLeastLoaded, Policy(99)} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

// TestQuickLogicInvariants drives Logic with a random event sequence and
// checks the credit/queue conservation invariants after every step.
func TestQuickLogicInvariants(t *testing.T) {
	f := func(seed uint64, workersRaw, kRaw uint8, steps uint16) bool {
		workers := int(workersRaw%8) + 1
		k := int(kRaw%6) + 1
		rng := rand.New(rand.NewPCG(seed, 42))
		l := NewLogic(workers, k, Policy(rng.IntN(3)))

		// inFlight[w] holds requests covered by w's credits.
		inFlight := make([]map[uint64]*task.Request, workers)
		for i := range inFlight {
			inFlight[i] = map[uint64]*task.Request{}
		}
		nextID := uint64(1)
		admitted, finished := 0, 0

		apply := func(as []Assignment) bool {
			for _, a := range as {
				if a.Worker < 0 || a.Worker >= workers || a.Req == nil {
					return false
				}
				if _, dup := inFlight[a.Worker][a.Req.ID]; dup {
					return false
				}
				inFlight[a.Worker][a.Req.ID] = a.Req
			}
			return true
		}

		for s := 0; s < int(steps%500); s++ {
			switch rng.IntN(3) {
			case 0: // new request
				if !apply(l.EnqueueTo(nil, 0, req(nextID))) {
					return false
				}
				nextID++
				admitted++
			case 1: // completion on a random busy worker
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
			case 2: // preemption on a random busy worker
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
			// Invariants.
			carried := 0
			for w := 0; w < workers; w++ {
				out := l.Outstanding(w)
				if out < 0 || out > k {
					return false
				}
				if out != len(inFlight[w]) {
					return false
				}
				carried += out
			}
			// Conservation: admitted = finished + carried + queued.
			if admitted != finished+carried+l.QueueLen() {
				return false
			}
			// Work conservation: queue non-empty ⇒ all credits exhausted.
			if l.QueueLen() > 0 {
				for w := 0; w < workers; w++ {
					if l.Outstanding(w) < k {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAffinityPrefersLastWorker(t *testing.T) {
	// Whenever a preempted request resumes while its previous worker has
	// spare credit, affinity must choose that worker even though other
	// workers are also free.
	l := NewLogic(3, 1, LeastOutstanding)
	l.EnableAffinity()
	for trial := 0; trial < 20; trial++ {
		r := req(uint64(trial + 1))
		as := l.EnqueueTo(nil, 0, r)
		w := as[0].Worker
		// The core model stamps LastWorker when execution starts.
		r.LastWorker = w
		r.Preemptions = 1
		// Preempt r: its worker frees, the other two are also free —
		// affinity must send it straight back to w.
		as = l.PreemptedTo(nil, 0, w, r)
		if len(as) != 1 || as[0].Req != r || as[0].Worker != w {
			t.Fatalf("trial %d: affinity resume = %v, want worker %d", trial, as, w)
		}
		// Clean up for the next trial.
		l.CompleteTo(nil, as[0].Worker)
	}
}

func TestAffinityFallsBackWhenLastWorkerBusy(t *testing.T) {
	l := NewLogic(2, 1, LeastOutstanding)
	l.EnableAffinity()
	r := req(1)
	as := l.EnqueueTo(nil, 0, r) // -> worker A
	aw := as[0].Worker
	r.LastWorker = aw
	r.Preemptions = 1
	l.EnqueueTo(nil, 0, req(2)) // worker B busy
	l.EnqueueTo(nil, 0, req(3)) // queued behind full credits
	// Preempt r from worker A: the queue head is request 3 (FIFO), which
	// is fresh, so it takes worker A; r waits at the tail.
	as = l.PreemptedTo(nil, 0, aw, r)
	if len(as) != 1 || as[0].Req.ID != 3 {
		t.Fatalf("dispatch = %v, want fresh request 3", as)
	}
	// The other worker (not r's last) completes: r must still dispatch
	// there — affinity is a preference, not a constraint.
	other := 1 - aw
	as = l.CompleteTo(nil, other)
	if len(as) != 1 || as[0].Req != r || as[0].Worker != other {
		t.Fatalf("fallback dispatch = %v, want r on worker %d", as, other)
	}
}

func TestAffinityIgnoresFreshRequests(t *testing.T) {
	l := NewLogic(2, 2, LeastOutstanding)
	l.EnableAffinity()
	// Fresh requests must spread normally (no affinity distortion).
	a1 := l.EnqueueTo(nil, 0, req(1))
	a2 := l.EnqueueTo(nil, 0, req(2))
	if a1[0].Worker == a2[0].Worker {
		t.Fatal("fresh requests not spread across workers")
	}
}
