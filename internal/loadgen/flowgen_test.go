package loadgen

import (
	"math/rand/v2"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// drainSink classifies like a flow-aware system: count the batch,
// decrement InFlight, and drop the last reference so retired records can
// recycle.
func drainSink(counts map[task.FlowClass]uint64) func(*task.Request) {
	return func(r *task.Request) {
		f := r.FlowState
		r.FlowState = nil
		counts[f.Class] += uint64(r.Packets)
		f.InFlight--
		f.ReleaseIfIdle()
	}
}

func TestFlowGeneratorPopulationExact(t *testing.T) {
	eng := sim.New()
	fp := &task.FlowPool{}
	counts := map[task.FlowClass]uint64{}
	g := NewFlow(eng, FlowConfig{
		RPS:              1_000_000,
		Service:          dist.Fixed{D: 100 * time.Nanosecond},
		Flows:            64,
		ElephantFraction: 0.25,
		Seed:             3,
		MaxArrivals:      50_000,
		FlowPool:         fp,
	}, drainSink(counts))
	g.Start()
	if g.Population() != 64 {
		t.Fatalf("population after Start = %d, want 64", g.Population())
	}
	eng.Run()
	if g.Population() != 64 {
		t.Fatalf("population after run = %d, want 64 (exact, retire-and-replace)", g.Population())
	}
	if g.RetiredFlows() == 0 {
		t.Fatal("no flows retired over 50k batches of finite trains")
	}
	// Retired records whose batches have all been classified must have
	// been recycled: live = the 64 active + nothing else.
	if fp.Live() != 64 {
		t.Fatalf("flow pool live = %d, want 64", fp.Live())
	}
	if g.Arrivals() != 50_000 {
		t.Fatalf("arrivals = %d, want 50000", g.Arrivals())
	}
}

func TestFlowGeneratorElephantSplitExact(t *testing.T) {
	eng := sim.New()
	// Initial flows are IDs 1..1000; class is read off the batches that
	// carry them. 40 000 uniform picks over 1000 slots select every one.
	classOf := map[task.FlowID]task.FlowClass{}
	g := NewFlow(eng, FlowConfig{
		RPS:              1_000_000,
		Service:          dist.Fixed{D: 100 * time.Nanosecond},
		Flows:            1000,
		ElephantFraction: 0.2,
		Seed:             9,
		MaxArrivals:      40_000,
	}, func(r *task.Request) {
		if r.FlowID <= 1000 {
			classOf[r.FlowID] = r.FlowState.Class
		}
		r.FlowState.InFlight--
		r.FlowState = nil
	})
	g.Start()
	if g.Flows() != 1000 || g.Population() != 1000 {
		t.Fatalf("after Start: flows counter = %d, population = %d, want 1000 each", g.Flows(), g.Population())
	}
	eng.Run()
	// The split is an error accumulator, not a coin flip: of the first
	// 1000 spawns at fraction 0.2, exactly 200 are elephants.
	var elephants int
	for _, c := range classOf {
		if c == task.ClassElephant {
			elephants++
		}
	}
	if len(classOf) != 1000 || elephants != 200 {
		t.Fatalf("elephants = %d of %d initial flows seen at fraction 0.2, want exactly 200 of 1000", elephants, len(classOf))
	}
}

// refFlowGen is the eager generator the virtual population replaced, kept
// as the oracle (as wheel_test.go keeps the reference heap): Start builds
// every record of the population before the first event and a batch only
// ever indexes real records. It shares NewFlow's defaults, RNG seeding
// and expGap with the generator and nothing else.
type refFlowGen struct {
	eng  *sim.Engine
	cfg  FlowConfig
	rng  *rand.Rand
	sink func(*task.Request)

	active         []*task.Flow
	nextReqID      uint64
	nextFlowID     task.FlowID
	elephantCredit float64
	flows, retired uint64
}

func newRefFlowGen(eng *sim.Engine, cfg FlowConfig, sink func(*task.Request)) *refFlowGen {
	g := NewFlow(eng, cfg, sink)
	return &refFlowGen{eng: eng, cfg: g.cfg, rng: g.rng, sink: sink}
}

func (r *refFlowGen) start() {
	for i := 0; i < r.cfg.Flows; i++ {
		r.spawn()
	}
	r.eng.After(expGap(r.rng, r.cfg.RPS), r.batch)
}

func (r *refFlowGen) spawn() {
	r.nextFlowID++
	class, train := task.ClassRat, uint32(r.cfg.RatTrain)
	r.elephantCredit += r.cfg.ElephantFraction
	if r.elephantCredit >= 1 {
		r.elephantCredit--
		class, train = task.ClassElephant, uint32(r.cfg.ElephantTrain)
	}
	r.flows++
	r.active = append(r.active, task.NewFlow(r.nextFlowID, class, train))
}

func (r *refFlowGen) batch() {
	if r.cfg.MaxArrivals > 0 && r.nextReqID >= r.cfg.MaxArrivals {
		return
	}
	idx := r.rng.IntN(len(r.active))
	f := r.active[idx]
	batch := uint32(r.cfg.RatBatch)
	if f.Class == task.ClassElephant {
		batch = uint32(r.cfg.ElephantBatch)
	}
	batch = min(batch, f.Remaining)
	r.nextReqID++
	req := task.New(r.nextReqID, r.eng.Now(), r.cfg.Service.Sample(r.rng)*time.Duration(batch))
	req.FlowID, req.FlowState, req.Packets = f.ID, f, batch
	f.Remaining -= batch
	f.InFlight++
	if f.Remaining == 0 {
		f.Retired = true
		last := len(r.active) - 1
		r.active[idx] = r.active[last]
		r.active = r.active[:last]
		r.retired++
		r.spawn()
	}
	r.sink(req)
	r.eng.After(expGap(r.rng, r.cfg.RPS), r.batch)
}

// emitted is everything a sink can observe of one batch.
type emitted struct {
	req     uint64
	flow    task.FlowID
	class   task.FlowClass
	packets uint32
	service time.Duration
	at      sim.Time
}

// TestFlowGeneratorMatchesEagerReference holds the virtual population to
// the eager oracle: identical emitted streams and counters. The sweep
// crosses the swap-delete edges by construction — at population 1 the
// selected slot is always the tail, and with default rats (a one-batch
// train) the first retirement of every larger population finds its tail
// still virtual.
func TestFlowGeneratorMatchesEagerReference(t *testing.T) {
	const batches = 20_000
	for seed := uint64(1); seed <= 3; seed++ {
		for _, flows := range []int{1, 64, 4096, 65536} {
			for _, frac := range []float64{0, 0.2, 1} {
				cfg := FlowConfig{
					RPS:              2_000_000,
					Service:          dist.Exponential{M: 170 * time.Nanosecond},
					Flows:            flows,
					ElephantFraction: frac,
					Seed:             seed,
					MaxArrivals:      batches,
				}
				record := func(eng *sim.Engine, log *[]emitted) func(*task.Request) {
					return func(r *task.Request) {
						f := r.FlowState
						r.FlowState = nil
						*log = append(*log, emitted{r.ID, r.FlowID, f.Class, r.Packets, r.Service, eng.Now()})
						f.InFlight--
						f.ReleaseIfIdle()
					}
				}
				var got, want []emitted
				eng, refEng := sim.New(), sim.New()
				pooled := cfg
				if seed != 2 { // seed 2 runs unpooled, like the reference
					pooled.Pool, pooled.FlowPool = &task.Pool{}, &task.FlowPool{}
				}
				g := NewFlow(eng, pooled, record(eng, &got))
				ref := newRefFlowGen(refEng, cfg, record(refEng, &want))
				g.Start()
				ref.start()
				eng.Run()
				refEng.Run()
				if len(got) != batches || len(want) != batches {
					t.Fatalf("seed %d flows %d frac %v: emitted %d, reference %d, want %d", seed, flows, frac, len(got), len(want), batches)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d flows %d frac %v: batch %d = %+v, reference %+v", seed, flows, frac, i, got[i], want[i])
					}
				}
				if g.Flows() != ref.flows || g.RetiredFlows() != ref.retired || g.Population() != len(ref.active) {
					t.Fatalf("seed %d flows %d frac %v: flows/retired/population = %d/%d/%d, reference %d/%d/%d",
						seed, flows, frac, g.Flows(), g.RetiredFlows(), g.Population(), ref.flows, ref.retired, len(ref.active))
				}
			}
		}
	}
}

// TestFlowGeneratorMillionFlowFootprint pins what the virtual population
// is for: a million-flow point allocates for the flows its batches touch
// (one pool slab per 64 of them), not for the population it declares.
func TestFlowGeneratorMillionFlowFootprint(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		eng := sim.New()
		pool := &task.Pool{}
		g := NewFlow(eng, FlowConfig{
			RPS:              400_000,
			Service:          dist.Fixed{D: 170 * time.Nanosecond},
			Flows:            1 << 20,
			ElephantFraction: 0.2,
			Seed:             7,
			MaxArrivals:      2000,
			Pool:             pool,
			FlowPool:         &task.FlowPool{},
		}, func(r *task.Request) {
			f := r.FlowState
			r.FlowState = nil
			f.InFlight--
			f.ReleaseIfIdle()
			pool.Put(r)
		})
		g.Start()
		eng.Run()
		if g.Population() != 1<<20 || g.Arrivals() != 2000 {
			t.Fatalf("population = %d, arrivals = %d", g.Population(), g.Arrivals())
		}
	})
	if allocs >= 5000 {
		t.Fatalf("a 1 048 576-flow point of 2 000 batches allocated %.0f objects, want < 5 000", allocs)
	}
}

func TestFlowGeneratorBatchAndTrainAccounting(t *testing.T) {
	eng := sim.New()
	counts := map[task.FlowClass]uint64{}
	g := NewFlow(eng, FlowConfig{
		RPS:              500_000,
		Service:          dist.Fixed{D: 170 * time.Nanosecond},
		Flows:            8,
		ElephantFraction: 0.5,
		RatBatch:         2, RatTrain: 6,
		ElephantBatch: 8, ElephantTrain: 24,
		Seed:        11,
		MaxArrivals: 20_000,
	}, func(r *task.Request) {
		f := r.FlowState
		r.FlowState = nil
		if r.FlowID == 0 {
			t.Fatal("batch without a flow id")
		}
		counts[f.Class] += uint64(r.Packets)
		// A batch's service time is the per-packet draw times its size.
		if want := 170 * time.Nanosecond * time.Duration(r.Packets); r.Service != want {
			t.Fatalf("batch service = %v for %d packets, want %v", r.Service, r.Packets, want)
		}
		f.InFlight--
		f.ReleaseIfIdle()
	})
	g.Start()
	eng.Run()
	if counts[task.ClassRat] == 0 || counts[task.ClassElephant] == 0 {
		t.Fatalf("packet counts by class = %v, want both classes seen", counts)
	}
	if g.Packets() != counts[task.ClassRat]+counts[task.ClassElephant] {
		t.Fatalf("generator packets = %d, sink saw %d", g.Packets(),
			counts[task.ClassRat]+counts[task.ClassElephant])
	}
}

func TestFlowGeneratorDeterministicStreams(t *testing.T) {
	run := func() []uint64 {
		eng := sim.New()
		var ids []uint64
		g := NewFlow(eng, FlowConfig{
			RPS:              2_000_000,
			Service:          dist.Fixed{D: time.Microsecond},
			Flows:            32,
			ElephantFraction: 0.2,
			Seed:             21,
			MaxArrivals:      5000,
			FlowPool:         &task.FlowPool{},
		}, func(r *task.Request) {
			f := r.FlowState
			r.FlowState = nil
			ids = append(ids, uint64(r.FlowID)<<32|uint64(r.Packets))
			f.InFlight--
			f.ReleaseIfIdle()
		})
		g.Start()
		eng.Run()
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at batch %d", i)
		}
	}
}

// TestCounterMetricsShared pins the deduped counter-accessor pattern:
// both generators count through the same embedded Counters.
func TestCounterMetricsShared(t *testing.T) {
	eng := sim.New()
	g := New(eng, Config{
		RPS:         1_000_000,
		Service:     dist.Fixed{D: time.Microsecond},
		Seed:        1,
		MaxArrivals: 100,
	}, func(r *task.Request) {})
	fg := NewFlow(eng, FlowConfig{
		RPS:              1_000_000,
		Service:          dist.Fixed{D: time.Microsecond},
		Flows:            10,
		ElephantFraction: 0.2,
		Seed:             2,
		MaxArrivals:      100,
	}, func(r *task.Request) {
		f := r.FlowState
		r.FlowState = nil
		f.InFlight--
		f.ReleaseIfIdle()
	})
	g.Start()
	fg.Start()
	eng.Run()
	for _, c := range []*Counters{&g.Counters, &fg.Counters} {
		if c.Packets() < c.Arrivals() {
			t.Fatalf("packets %d < arrivals %d", c.Packets(), c.Arrivals())
		}
	}
	if g.Packets() != g.Arrivals() || g.Flows() != 0 || fg.Flows() == 0 {
		t.Fatalf("request generator packets/flows = %d/%d for %d arrivals; flow generator started %d flows",
			g.Packets(), g.Flows(), g.Arrivals(), fg.Flows())
	}
	if g.Arrivals() != 100 || fg.Arrivals() != 100 {
		t.Fatalf("arrivals = %d/%d, want 100 each", g.Arrivals(), fg.Arrivals())
	}
}

func TestFlowConfigValidation(t *testing.T) {
	eng := sim.New()
	sink := func(*task.Request) {}
	for name, cfg := range map[string]FlowConfig{
		"zero rps":     {Service: dist.Fixed{D: 1}, Flows: 1},
		"no service":   {RPS: 1, Flows: 1},
		"zero flows":   {RPS: 1, Service: dist.Fixed{D: 1}},
		"bad fraction": {RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1, ElephantFraction: 1.5},
		"neg fraction": {RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1, ElephantFraction: -0.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewFlow did not panic", name)
				}
			}()
			NewFlow(eng, cfg, sink)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil sink: NewFlow did not panic")
			}
		}()
		NewFlow(eng, FlowConfig{RPS: 1, Service: dist.Fixed{D: 1}, Flows: 1}, nil)
	}()
}
