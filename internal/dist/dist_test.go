package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func rng() *rand.Rand { return rand.New(rand.NewPCG(7, 11)) }

// sampleMean draws n samples and returns their empirical mean in ns.
func sampleMean(d Distribution, n int) float64 {
	r := rng()
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(r))
	}
	return sum / float64(n)
}

func TestFixed(t *testing.T) {
	f := Fixed{D: 5 * time.Microsecond}
	r := rng()
	for i := 0; i < 100; i++ {
		if got := f.Sample(r); got != 5*time.Microsecond {
			t.Fatalf("Sample = %v, want 5µs", got)
		}
	}
	if f.Mean() != 5*time.Microsecond {
		t.Fatalf("Mean = %v", f.Mean())
	}
}

func TestBimodalPaperWorkload(t *testing.T) {
	// Figure 2: 99.5% 5µs, 0.5% 100µs ⇒ mean 5.475µs.
	b := Bimodal{P1: 0.995, D1: 5 * time.Microsecond, D2: 100 * time.Microsecond}
	if got, want := b.Mean(), 5475*time.Nanosecond; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	r := rng()
	long := 0
	const n = 200_000
	for i := 0; i < n; i++ {
		switch b.Sample(r) {
		case 100 * time.Microsecond:
			long++
		case 5 * time.Microsecond:
		default:
			t.Fatal("bimodal produced a third value")
		}
	}
	frac := float64(long) / n
	if frac < 0.004 || frac > 0.006 {
		t.Fatalf("long fraction = %v, want ≈0.005", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	e := Exponential{M: 10 * time.Microsecond}
	got := sampleMean(e, 200_000)
	want := float64(10 * time.Microsecond)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("empirical mean = %v, want ≈%v", time.Duration(got), e.M)
	}
}

func TestExponentialNeverNonPositive(t *testing.T) {
	e := Exponential{M: time.Nanosecond}
	r := rng()
	for i := 0; i < 10_000; i++ {
		if e.Sample(r) <= 0 {
			t.Fatal("exponential produced non-positive duration")
		}
	}
}

func TestLogNormalMean(t *testing.T) {
	l := LogNormal{Mu: math.Log(1000), Sigma: 0.5}
	analytic := float64(l.Mean())
	got := sampleMean(l, 300_000)
	if math.Abs(got-analytic)/analytic > 0.03 {
		t.Fatalf("empirical mean = %v, analytic %v", got, analytic)
	}
}

func TestParetoBounds(t *testing.T) {
	p := Pareto{Min: time.Microsecond, Alpha: 1.2, Max: time.Millisecond}
	r := rng()
	for i := 0; i < 50_000; i++ {
		d := p.Sample(r)
		if d < time.Microsecond || d > time.Millisecond {
			t.Fatalf("sample %v outside [1µs, 1ms]", d)
		}
	}
}

func TestParetoUnboundedMean(t *testing.T) {
	p := Pareto{Min: time.Microsecond, Alpha: 2}
	// alpha/(alpha-1) * min = 2µs.
	if got := p.Mean(); got != 2*time.Microsecond {
		t.Fatalf("Mean = %v, want 2µs", got)
	}
	heavy := Pareto{Min: time.Microsecond, Alpha: 0.9}
	if heavy.Mean() != time.Duration(math.MaxInt64) {
		t.Fatal("alpha<=1 unbounded Pareto should report divergent mean")
	}
}

func TestUniform(t *testing.T) {
	u := Uniform{Lo: time.Microsecond, Hi: 3 * time.Microsecond}
	r := rng()
	for i := 0; i < 10_000; i++ {
		d := u.Sample(r)
		if d < u.Lo || d > u.Hi {
			t.Fatalf("sample %v outside [%v,%v]", d, u.Lo, u.Hi)
		}
	}
	if u.Mean() != 2*time.Microsecond {
		t.Fatalf("Mean = %v, want 2µs", u.Mean())
	}
	got := sampleMean(u, 100_000)
	if math.Abs(got-2000)/2000 > 0.02 {
		t.Fatalf("empirical mean %v, want ≈2µs", time.Duration(got))
	}
	degenerate := Uniform{Lo: 5, Hi: 5}
	if degenerate.Sample(r) != 5 {
		t.Fatal("degenerate uniform broken")
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"fixed:5µs",
		"bimodal:0.995:5µs:100µs",
		"exp:10µs",
		"lognormal:8.5:1.2",
		"pareto:1µs:1.5",
		"pareto:1µs:1.5:1ms",
		"uniform:1µs:10µs",
	}
	for _, in := range inputs {
		d, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q) error: %v", in, err)
		}
		// String() must itself parse back to an equivalent distribution.
		d2, err := Parse(d.String())
		if err != nil {
			t.Fatalf("Parse(String()=%q) error: %v", d.String(), err)
		}
		if d.Mean() != d2.Mean() {
			t.Fatalf("round trip changed mean: %v vs %v", d.Mean(), d2.Mean())
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"", "fixed", "fixed:abc", "fixed:-5us", "bimodal:2:5us:1us",
		"bimodal:0.5:5us", "exp:", "lognormal:a:b", "pareto:1us:0",
		"uniform:10us:1us", "zipf:1:2", "fixed:5us:extra",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

// Property: every distribution only produces positive samples and the
// empirical mean of fixed/uniform/bimodal matches the analytic mean within
// statistical tolerance.
func TestQuickPositiveSamples(t *testing.T) {
	f := func(seed uint64, meanUS uint16) bool {
		m := time.Duration(meanUS%1000+1) * time.Microsecond
		dists := []Distribution{
			Fixed{D: m},
			Bimodal{P1: 0.9, D1: m, D2: 10 * m},
			Exponential{M: m},
			Uniform{Lo: m, Hi: 2 * m},
			Pareto{Min: m, Alpha: 1.5, Max: 100 * m},
		}
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		for _, d := range dists {
			for i := 0; i < 64; i++ {
				if d.Sample(r) <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSamplingIsDeterministic: every distribution draws only from the
// rng it is handed, so two streams from one seed give the same sequence.
// A draw from the global source (or the wall clock) breaks it.
func TestSamplingIsDeterministic(t *testing.T) {
	for _, d := range []Distribution{
		Fixed{D: 5 * time.Microsecond},
		Bimodal{P1: 0.995, D1: 5 * time.Microsecond, D2: 100 * time.Microsecond},
		Exponential{M: 10 * time.Microsecond},
		LogNormal{Mu: 8, Sigma: 1},
		Pareto{Min: time.Microsecond, Alpha: 1.2, Max: time.Millisecond},
		Uniform{Lo: time.Microsecond, Hi: 9 * time.Microsecond},
	} {
		r1 := rand.New(rand.NewPCG(1, 2))
		r2 := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < 1000; i++ {
			if a, b := d.Sample(r1), d.Sample(r2); a != b {
				t.Fatalf("%v: same seed produced different sample streams at draw %d: %v vs %v", d, i, a, b)
			}
		}
	}
	z := NewZipfKeys(1000, 0.99)
	r1 := rand.New(rand.NewPCG(1, 2))
	r2 := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		if a, b := z.Sample(r1), z.Sample(r2); a != b {
			t.Fatalf("%v: same seed produced different key streams at draw %d: %d vs %d", z, i, a, b)
		}
	}
}
