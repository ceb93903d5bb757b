package loadgen

import (
	"math"
	"reflect"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

func TestPoissonRate(t *testing.T) {
	eng := sim.New()
	var arrivals []sim.Time
	g := New(eng, Config{
		RPS:     100_000,
		Service: dist.Fixed{D: time.Microsecond},
		Seed:    1,
	}, func(r *task.Request) { arrivals = append(arrivals, eng.Now()) })
	g.Start()
	eng.RunUntil(sim.Time(int64(time.Second)))
	// 100k RPS over 1 s: expect 100k ± 1.5%.
	got := float64(len(arrivals))
	if math.Abs(got-100_000)/100_000 > 0.015 {
		t.Fatalf("arrivals = %v, want ≈100000", got)
	}
	// Coefficient of variation of interarrivals ≈ 1 for Poisson.
	var sum, sumSq float64
	for i := 1; i < len(arrivals); i++ {
		d := float64(arrivals[i] - arrivals[i-1])
		sum += d
		sumSq += d * d
	}
	n := float64(len(arrivals) - 1)
	mean := sum / n
	cv := math.Sqrt(sumSq/n-mean*mean) / mean
	if cv < 0.95 || cv > 1.05 {
		t.Fatalf("interarrival CV = %v, want ≈1 (Poisson)", cv)
	}
}

func TestRequestFieldsPopulated(t *testing.T) {
	eng := sim.New()
	var got []*task.Request
	g := New(eng, Config{
		RPS:         1_000_000,
		Service:     dist.Fixed{D: 5 * time.Microsecond},
		Keys:        dist.NewZipfKeys(16, 0.99),
		Seed:        7,
		ClientID:    42,
		MaxArrivals: 100,
	}, func(r *task.Request) { got = append(got, r) })
	g.Start()
	eng.Run()
	if len(got) != 100 {
		t.Fatalf("arrivals = %d, want 100 (MaxArrivals)", len(got))
	}
	seenKey := false
	for i, r := range got {
		if r.ID != 42<<32+uint64(i+1) {
			t.Fatalf("IDs not sequential from the client's base: %d at %d", r.ID, i)
		}
		if r.Service != 5*time.Microsecond || r.Remaining != r.Service {
			t.Fatalf("service not set: %+v", r)
		}
		if r.ClientID != 42 {
			t.Fatalf("client id = %d", r.ClientID)
		}
		if r.Arrival != eng.Now() && r.Arrival > eng.Now() {
			t.Fatal("arrival in the future")
		}
		if r.Key != 0 {
			seenKey = true
		}
	}
	if !seenKey {
		t.Fatal("zipf keys never sampled a non-zero key")
	}
	if g.Arrivals() != 100 {
		t.Fatalf("Arrivals() = %d", g.Arrivals())
	}
}

func TestDeterministicStreams(t *testing.T) {
	run := func() []time.Duration {
		eng := sim.New()
		var svc []time.Duration
		g := New(eng, Config{
			RPS:         500_000,
			Service:     dist.Exponential{M: 2 * time.Microsecond},
			Seed:        99,
			MaxArrivals: 500,
		}, func(r *task.Request) { svc = append(svc, r.Service) })
		g.Start()
		eng.Run()
		return svc
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
}

// TestSourceMergesLoneStreams: pulled through one Source, each stream
// transmits exactly the (Arrival, Service, Key) sequence a lone started
// generator with its config produces, the merge is in transmit order with
// ties to the lower stream, and a stream stops at its MaxArrivals.
func TestSourceMergesLoneStreams(t *testing.T) {
	type sent struct {
		id      uint64
		arrival sim.Time
		service time.Duration
		key     uint64
	}
	cfgs := []Config{
		{RPS: 300_000, Service: dist.Exponential{M: 2 * time.Microsecond}, Keys: dist.NewZipfKeys(64, 0.99), Seed: 7},
		{RPS: 100_000, Service: dist.Fixed{D: time.Microsecond}, Seed: 7 + 7919, ClientID: 1, MaxArrivals: 40},
		{RPS: 50_000, Service: dist.Bimodal{P1: 0.9, D1: time.Microsecond, D2: 100 * time.Microsecond}, Keys: dist.NewZipfKeys(64, 0.5), Seed: 9, ClientID: 2},
	}
	const pulls = 600
	lone := make([][]sent, len(cfgs))
	for i, cfg := range cfgs {
		eng := sim.New()
		g := New(eng, cfg, func(r *task.Request) {
			if eng.Now() != r.Arrival {
				t.Fatalf("a started generator transmitted request %d at %v, stamped %v", r.ID, eng.Now(), r.Arrival)
			}
			if len(lone[i]) < pulls {
				lone[i] = append(lone[i], sent{r.ID, r.Arrival, r.Service, r.Key})
			}
		})
		g.Start()
		for eng.Step() && len(lone[i]) < pulls {
		}
	}

	eng := sim.New()
	merged := make([][]sent, len(cfgs))
	var order []sent
	gens := make([]*Generator, len(cfgs))
	for i, cfg := range cfgs {
		gens[i] = New(eng, cfg, func(r *task.Request) {
			s := sent{r.ID, r.Arrival, r.Service, r.Key}
			merged[i] = append(merged[i], s)
			order = append(order, s)
		})
	}
	src := NewSource(gens...)
	for k := 0; k < pulls; k++ {
		src.Pull()
	}
	if eng.Pending() != 0 {
		t.Fatalf("a pulled source filed %d events", eng.Pending())
	}
	for i := range cfgs {
		if want := lone[i][:len(merged[i])]; !reflect.DeepEqual(merged[i], want) {
			t.Errorf("stream %d: merged sequence diverges from a lone generator's\n got %v\nwant %v", i, merged[i], want)
		}
	}
	if got := len(merged[1]); got != 40 {
		t.Errorf("stream 1 transmitted %d requests, want its MaxArrivals 40", got)
	}
	for k := 1; k < len(order); k++ {
		if a, b := order[k-1], order[k]; b.arrival < a.arrival || b.arrival == a.arrival && b.id>>32 < a.id>>32 {
			t.Fatalf("pull %d transmitted %+v after %+v", k, b, a)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	sink := func(*task.Request) {}
	for _, f := range []func(){
		func() { New(eng, Config{RPS: 0, Service: dist.Fixed{D: 1}}, sink) },
		func() { New(eng, Config{RPS: 1000}, sink) },
		func() { New(eng, Config{RPS: 1000, Service: dist.Fixed{D: 1}}, nil) },
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
