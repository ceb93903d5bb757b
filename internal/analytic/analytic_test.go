package analytic

import (
	"math"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/queue"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

func TestErlangCKnownValues(t *testing.T) {
	// c=1: Erlang C reduces to rho.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, rho); math.Abs(got-rho) > 1e-12 {
			t.Fatalf("ErlangC(1,%v) = %v, want %v", rho, got, rho)
		}
	}
	// Textbook value: c=2, rho=0.75 (a=1.5) ⇒ P(wait) = a²/2 /(1-ρ) over
	// (1 + a + that) = 1.125/0.25=4.5 → 4.5/(1+1.5+4.5) = 0.642857...
	if got, want := ErlangC(2, 0.75), 0.6428571428571429; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ErlangC(2,0.75) = %v, want %v", got, want)
	}
	// More servers at equal utilization ⇒ less waiting.
	if ErlangC(8, 0.7) >= ErlangC(2, 0.7) {
		t.Fatal("Erlang C not decreasing in server count")
	}
}

// TestMM1MMcConsistency pins that the M/M/c forms reduce to the M/M/1
// forms at c=1: mean response, wait quantiles, and queue length must all
// agree with the single-server closed forms.
func TestMM1MMcConsistency(t *testing.T) {
	meanSvc := 10 * time.Microsecond
	for _, rho := range []float64{0.1, 0.5, 0.7, 0.9} {
		if got, want := MMcMeanResponse(1, rho, meanSvc), MM1MeanResponse(rho, meanSvc); got != want {
			t.Errorf("rho=%v: MMcMeanResponse(1) = %v, MM1MeanResponse = %v", rho, got, want)
		}
		// M/M/1 queue length: Lq = rho²/(1−rho).
		if got, want := MMcMeanQueueLen(1, rho), rho*rho/(1-rho); math.Abs(got-want) > 1e-12 {
			t.Errorf("rho=%v: MMcMeanQueueLen(1) = %v, want %v", rho, got, want)
		}
		// M/M/1 wait quantile: P(Wq > t) = rho·e^(−(µ−λ)t), so for
		// q above 1−rho the M/M/c quantile must match the shifted
		// response-quantile identity ln(rho/(1−q))·meanSvc/(1−rho).
		q := 0.99
		want := time.Duration(math.Log(rho/(1-q)) / (1 - rho) * float64(meanSvc))
		if rho <= 1-q {
			want = 0
		}
		got := MMcWaitQuantile(1, rho, meanSvc, q)
		if diff := math.Abs(float64(got - want)); diff > 1 {
			t.Errorf("rho=%v: MMcWaitQuantile(1) = %v, want %v", rho, got, want)
		}
	}
}

// TestMMcWaitQuantileAtoms pins the zero atom: when fewer than 1−q of
// arrivals wait at all, the q-quantile of Wq is exactly zero.
func TestMMcWaitQuantileAtoms(t *testing.T) {
	// M/M/8 at rho=0.3: Pw ≈ 0.0129 > 0.01, so p99 is tiny but nonzero
	// while the p90 sits on the atom.
	if got := MMcWaitQuantile(8, 0.3, 10*time.Microsecond, 0.90); got != 0 {
		t.Errorf("p90 with Pw≈1.3%% = %v, want 0", got)
	}
	if got := MMcWaitQuantile(8, 0.3, 10*time.Microsecond, 0.999); got <= 0 {
		t.Errorf("p99.9 with Pw≈1.3%% = %v, want > 0", got)
	}
	// Quantiles are monotone in q once off the atom.
	if MMcWaitQuantile(4, 0.8, 10*time.Microsecond, 0.999) <= MMcWaitQuantile(4, 0.8, 10*time.Microsecond, 0.99) {
		t.Error("wait quantile not increasing in q")
	}
}

func TestErlangCValidation(t *testing.T) {
	for _, f := range []func(){
		func() { ErlangC(0, 0.5) },
		func() { ErlangC(2, 1.0) },
		func() { ErlangC(2, 1.5) },
		func() { ErlangC(1, math.Inf(1)) },
		func() { ErlangC(2, -0.1) },
		func() { MM1MeanResponse(1.0, time.Microsecond) },
		func() { MG1MeanWait(1.0, 1, time.Microsecond) },
		func() { MM1ResponseQuantile(0.5, time.Microsecond, 0) },
		func() { MMcWaitQuantile(2, 0.5, time.Microsecond, 1.0) },
		func() { MMcMeanQueueLen(2, 1.0) },
		func() { MMcMeanResponse(2, -0.5, time.Microsecond) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid input did not panic")
				}
			}()
			f()
		}()
	}
}

// idealQueue is a zero-overhead M/M/c station built directly on the
// simulator: the reference configuration for validating the engine.
type idealQueue struct {
	eng     *sim.Engine
	busy    int
	servers int
	q       queue.FIFO[*task.Request]
	done    func(*task.Request)
}

func (s *idealQueue) inject(r *task.Request) {
	if s.busy < s.servers {
		s.serve(r)
		return
	}
	s.q.Push(r)
}

func (s *idealQueue) serve(r *task.Request) {
	s.busy++
	s.eng.After(r.Service, func() {
		s.busy--
		s.done(r)
		if next, ok := s.q.Pop(); ok {
			s.serve(next)
		}
	})
}

// runMMc simulates an M/M/c queue and returns the empirical mean response
// time.
func runMMc(t *testing.T, c int, rho float64, meanSvc time.Duration, n int) time.Duration {
	t.Helper()
	eng := sim.New()
	var lat stats.Histogram
	completed := 0
	st := &idealQueue{eng: eng, servers: c}
	st.done = func(r *task.Request) {
		completed++
		if completed > n/5 { // discard warmup fifth
			lat.Record(r.Latency(eng.Now()))
		}
		if completed >= n {
			eng.Halt()
		}
	}
	lambda := rho * float64(c) / meanSvc.Seconds()
	loadgen.New(eng, loadgen.Config{
		RPS:     lambda,
		Service: dist.Exponential{M: meanSvc},
		Seed:    1234,
	}, st.inject).Start()
	eng.Run()
	if completed < n {
		t.Fatalf("only %d/%d completions", completed, n)
	}
	return lat.Mean()
}

// TestSimulatorMatchesMMc is the engine's ground-truth check: an idealized
// station must reproduce Erlang-C mean response times.
func TestSimulatorMatchesMMc(t *testing.T) {
	cases := []struct {
		c   int
		rho float64
	}{
		{1, 0.5},
		{1, 0.8},
		{4, 0.7},
		{16, 0.9},
	}
	meanSvc := 10 * time.Microsecond
	for _, tc := range cases {
		want := MMcMeanWait(tc.c, tc.rho, meanSvc) + meanSvc
		got := runMMc(t, tc.c, tc.rho, meanSvc, 120_000)
		relErr := math.Abs(float64(got)-float64(want)) / float64(want)
		if relErr > 0.06 {
			t.Errorf("M/M/%d ρ=%v: sim mean %v vs theory %v (err %.1f%%)",
				tc.c, tc.rho, got, want, relErr*100)
		}
	}
}

// TestSimulatorMatchesMM1Quantile checks the tail, not just the mean: the
// p99 of M/M/1 response time is analytic.
func TestSimulatorMatchesMM1Quantile(t *testing.T) {
	meanSvc := 10 * time.Microsecond
	rho := 0.7
	eng := sim.New()
	var lat stats.Histogram
	completed := 0
	const n = 200_000
	st := &idealQueue{eng: eng, servers: 1}
	st.done = func(r *task.Request) {
		completed++
		if completed > n/5 {
			lat.Record(r.Latency(eng.Now()))
		}
		if completed >= n {
			eng.Halt()
		}
	}
	loadgen.New(eng, loadgen.Config{
		RPS:     rho / meanSvc.Seconds(),
		Service: dist.Exponential{M: meanSvc},
		Seed:    77,
	}, st.inject).Start()
	eng.Run()
	want := MM1ResponseQuantile(rho, meanSvc, 0.99)
	got := lat.P99()
	relErr := math.Abs(float64(got)-float64(want)) / float64(want)
	if relErr > 0.08 {
		t.Fatalf("M/M/1 p99: sim %v vs theory %v (err %.1f%%)", got, want, relErr*100)
	}
}

// TestSimulatorMatchesMG1 checks the Pollaczek–Khinchine mean wait with a
// high-variance (bimodal) service distribution — the regime the paper's
// workloads live in.
func TestSimulatorMatchesMG1(t *testing.T) {
	// Figure 2's bimodal: mean 5.475µs.
	b := dist.Bimodal{P1: 0.995, D1: 5 * time.Microsecond, D2: 100 * time.Microsecond}
	mean := float64(b.Mean())
	// E[s²] and cs².
	es2 := 0.995*math.Pow(5000, 2) + 0.005*math.Pow(100000, 2)
	cs2 := es2/(mean*mean) - 1

	rho := 0.6
	eng := sim.New()
	var lat stats.Histogram
	completed := 0
	const n = 300_000
	st := &idealQueue{eng: eng, servers: 1}
	st.done = func(r *task.Request) {
		completed++
		if completed > n/5 {
			lat.Record(r.Latency(eng.Now()))
		}
		if completed >= n {
			eng.Halt()
		}
	}
	loadgen.New(eng, loadgen.Config{
		RPS:     rho / (time.Duration(mean)).Seconds(),
		Service: b,
		Seed:    31,
	}, st.inject).Start()
	eng.Run()
	want := MG1MeanWait(rho, cs2, b.Mean()) + b.Mean()
	got := lat.Mean()
	relErr := math.Abs(float64(got)-float64(want)) / float64(want)
	if relErr > 0.08 {
		t.Fatalf("M/G/1 mean: sim %v vs P-K %v (err %.1f%%)", got, want, relErr*100)
	}
}
