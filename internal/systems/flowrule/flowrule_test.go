package flowrule

import (
	"testing"
	"time"

	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// completion records one finished request and its respond instant.
type completion struct {
	req *task.Request
	at  sim.Time
}

// newSys builds a system on a fresh engine with the given config (P
// defaulted) and records completions.
func newSys(t *testing.T, cfg Config) (*sim.Engine, *FlowRule, *[]completion) {
	t.Helper()
	eng := sim.New()
	var done []completion
	if cfg.P.ClientWireOneWay == 0 {
		cfg.P = params.Default()
	}
	s := New(eng, cfg, nil, func(r *task.Request) {
		done = append(done, completion{req: r, at: eng.Now()})
	})
	return eng, s, &done
}

// inject sends one batch of a flow through the front door, maintaining
// the generator-side bookkeeping the system expects.
func inject(eng *sim.Engine, s *FlowRule, f *task.Flow, id uint64, pkts uint32, svc time.Duration) {
	req := task.New(id, eng.Now(), svc)
	req.FlowID = f.ID
	req.FlowState = f
	req.Packets = pkts
	f.InFlight++
	s.Inject(req)
}

func TestSlowThenFastSteering(t *testing.T) {
	eng, s, done := newSys(t, Config{
		Workers:   1,
		Threshold: 1,
	})
	wire := params.Default().ClientWireOneWay
	f := task.NewFlow(1, task.ClassElephant, 1024)

	inject(eng, s, f, 1, 64, 10*time.Microsecond)
	eng.RunUntil(sim.Time(int64(time.Millisecond)))
	if s.SlowBatches() != 1 || s.FastBatches() != 0 {
		t.Fatalf("first batch: slow=%d fast=%d, want 1/0", s.SlowBatches(), s.FastBatches())
	}
	// Empty queue, idle core: the first batch pays wire, its service
	// time, the 80µs slow-path overhead, and the wire back.
	wantSlow := sim.Time(int64(wire + 10*time.Microsecond + 80*time.Microsecond + wire))
	if got := (*done)[0].at - (*done)[0].req.Arrival; got != wantSlow {
		t.Fatalf("slow-path latency = %v, want %v", got, wantSlow)
	}
	// One observed batch ≥ threshold 1: the rule must now be installed
	// (insertion pipeline drained long ago at 20k rules/s).
	if s.Resident() != 1 || s.Insertions() != 1 {
		t.Fatalf("resident=%d insertions=%d after qualifying batch, want 1/1", s.Resident(), s.Insertions())
	}

	inject(eng, s, f, 2, 64, 10*time.Microsecond)
	eng.RunUntil(sim.Time(int64(2 * time.Millisecond)))
	if s.FastBatches() != 1 {
		t.Fatalf("second batch did not take the fast path (fast=%d)", s.FastBatches())
	}
	// Fast path: wire + 10µs hardware transit + wire. No queue, no core,
	// no slow-path overhead.
	wantFast := sim.Time(int64(wire + 10*time.Microsecond + wire))
	if got := (*done)[1].at - (*done)[1].req.Arrival; got != wantFast {
		t.Fatalf("fast-path latency = %v, want %v", got, wantFast)
	}
	if f.Seen != 128 {
		t.Fatalf("classifier saw %d packets, want 128", f.Seen)
	}
}

func TestLRUEvictionDeterminism(t *testing.T) {
	eng, s, _ := newSys(t, Config{
		Workers:      1,
		Threshold:    1,
		RuleCapacity: 2,
		IdleTimeout:  time.Hour, // keep idle eviction out of the picture
	})
	a := task.NewFlow(1, task.ClassElephant, 1<<20)
	b := task.NewFlow(2, task.ClassElephant, 1<<20)
	c := task.NewFlow(3, task.ClassElephant, 1<<20)

	inject(eng, s, a, 1, 64, time.Microsecond)
	eng.RunUntil(sim.Time(int64(time.Millisecond)))
	inject(eng, s, b, 2, 64, time.Microsecond)
	eng.RunUntil(sim.Time(int64(2 * time.Millisecond)))
	if s.Resident() != 2 {
		t.Fatalf("resident = %d, want 2 (a and b installed)", s.Resident())
	}
	// Touch a on the fast path: b becomes least-recently-used.
	inject(eng, s, a, 3, 64, time.Microsecond)
	eng.RunUntil(sim.Time(int64(3 * time.Millisecond)))
	if !a.Resident || !b.Resident {
		t.Fatal("expected a and b resident before the eviction")
	}
	// c's install must evict exactly b, the LRU rule.
	inject(eng, s, c, 4, 64, time.Microsecond)
	eng.RunUntil(sim.Time(int64(4 * time.Millisecond)))
	if !a.Resident || b.Resident || !c.Resident {
		t.Fatalf("after eviction: a=%v b=%v c=%v, want a and c resident", a.Resident, b.Resident, c.Resident)
	}
	if s.LRUEvictions() != 1 {
		t.Fatalf("lru evictions = %d, want 1", s.LRUEvictions())
	}
}

func TestIdleTimeoutEviction(t *testing.T) {
	eng, s, _ := newSys(t, Config{
		Workers:     1,
		Threshold:   1,
		IdleTimeout: time.Millisecond,
	})
	f := task.NewFlow(1, task.ClassElephant, 1<<20)
	inject(eng, s, f, 1, 64, time.Microsecond)
	eng.RunUntil(sim.Time(int64(500 * time.Microsecond)))
	if !f.Resident {
		t.Fatal("rule not installed")
	}
	// No further traffic: the idle sweep must evict within a few periods.
	eng.RunUntil(sim.Time(int64(5 * time.Millisecond)))
	if f.Resident {
		t.Fatal("rule still resident after 5x the idle timeout")
	}
	if s.IdleEvictions() != 1 {
		t.Fatalf("idle evictions = %d, want 1", s.IdleEvictions())
	}
}

func TestInsertionBackPressure(t *testing.T) {
	eng, s, _ := newSys(t, Config{
		Workers:        1,
		Threshold:      1,
		InsertRate:     1000, // 1ms per rule
		InsertQueueCap: 2,
		SlowQueueCap:   1 << 20,
	})
	// 10 qualifying flows arrive within one insertion service time. A
	// rule in service keeps its queue slot until it completes, so 2 are
	// admitted and 8 refused.
	for i := 0; i < 10; i++ {
		f := task.NewFlow(task.FlowID(i+1), task.ClassElephant, 1<<20)
		inject(eng, s, f, uint64(i+1), 64, time.Microsecond)
	}
	eng.RunUntil(sim.Time(int64(100 * time.Microsecond)))
	if s.OverOffload() != 8 {
		t.Fatalf("refused offloads = %d, want 8 (insert queue cap 2 of 10)", s.OverOffload())
	}
	if s.Insertions() != 0 {
		t.Fatalf("insertions = %d before the pipeline's 1ms service time", s.Insertions())
	}
	// The pipeline drains its admitted backlog at the bounded rate.
	eng.RunUntil(sim.Time(int64(10 * time.Millisecond)))
	if s.Insertions() != 2 {
		t.Fatalf("insertions = %d, want 2 (bounded insertion rate)", s.Insertions())
	}
}

func TestSlowQueueSaturationDrops(t *testing.T) {
	rec := &stats.Recorder{}
	eng := sim.New()
	var done []*task.Request
	cfg := Config{
		P:            params.Default(),
		Workers:      1,
		SlowQueueCap: 1,
	}
	s := New(eng, cfg, &probe.Probe{Rec: rec}, func(r *task.Request) { done = append(done, r) })
	rec.Arm(0)
	// Three flowless batches in one instant: one in service, one queued,
	// one dropped.
	for i := 0; i < 3; i++ {
		s.Inject(task.New(uint64(i+1), 0, 100*time.Microsecond))
	}
	eng.RunUntil(sim.Time(int64(10 * time.Millisecond)))
	if s.DroppedBatches() != 1 {
		t.Fatalf("dropped = %d, want 1", s.DroppedBatches())
	}
	if rec.Dropped() != 1 {
		t.Fatalf("recorder drops = %d, want 1", rec.Dropped())
	}
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
}

func TestRetiredFlowSkipsInstallAndReleases(t *testing.T) {
	pool := &task.FlowPool{}
	eng, s, _ := newSys(t, Config{
		Workers:    1,
		Threshold:  1,
		InsertRate: 1000, // 1ms per rule: the flow retires mid-pipeline
	})
	f := pool.Get(1, task.ClassRat, 4)
	f.Remaining = 0
	inject(eng, s, f, 1, 4, time.Microsecond)
	// The generator retires the flow right after emitting its last batch.
	f.Retired = true
	eng.RunUntil(sim.Time(int64(10 * time.Millisecond)))
	if s.Insertions() != 0 {
		t.Fatal("installed a rule for a retired flow")
	}
	if s.Resident() != 0 {
		t.Fatalf("resident = %d, want 0", s.Resident())
	}
	if pool.Live() != 0 {
		t.Fatalf("flow record leaked: live = %d, want 0", pool.Live())
	}
}

func TestAdaptiveThresholdController(t *testing.T) {
	eng, s, _ := newSys(t, Config{Workers: 1, Threshold: 16, Adaptive: true})
	// Insertion-pipeline overflow in the first interval: threshold
	// doubles.
	s.overOffload = 5
	eng.RunUntil(sim.Time(int64(1500 * time.Microsecond)))
	if s.Threshold() != 32 {
		t.Fatalf("threshold = %d after overflow, want 32", s.Threshold())
	}
	// Quiet interval: no movement.
	eng.RunUntil(sim.Time(int64(2500 * time.Microsecond)))
	if s.Threshold() != 32 {
		t.Fatalf("threshold = %d after quiet interval, want 32", s.Threshold())
	}
	// Slow-path drops with a healthy pipeline: threshold halves.
	s.dropBatches = 3
	eng.RunUntil(sim.Time(int64(3500 * time.Microsecond)))
	if s.Threshold() != 16 {
		t.Fatalf("threshold = %d after drops, want 16", s.Threshold())
	}
	if s.Adjustments() != 2 {
		t.Fatalf("adjustments = %d, want 2", s.Adjustments())
	}
}

func TestBelowThresholdStaysSlow(t *testing.T) {
	eng, s, _ := newSys(t, Config{Workers: 1, Threshold: 1 << 19})
	f := task.NewFlow(1, task.ClassElephant, 1<<20)
	for i := 0; i < 5; i++ {
		inject(eng, s, f, uint64(i+1), 64, time.Microsecond)
		eng.RunUntil(sim.Time(int64((i + 1) * int(time.Millisecond))))
	}
	if s.Insertions() != 0 || s.FastBatches() != 0 {
		t.Fatalf("insertions=%d fast=%d below threshold, want 0/0", s.Insertions(), s.FastBatches())
	}
	if s.SlowBatches() != 5 {
		t.Fatalf("slow batches = %d, want 5", s.SlowBatches())
	}
}
