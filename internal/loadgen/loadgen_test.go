package loadgen

import (
	"math"
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
