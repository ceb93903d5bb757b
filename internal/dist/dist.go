// Package dist provides the service-time and inter-arrival distributions
// used by the synthetic workloads in the paper's evaluation (§4.1): fixed
// service times, the 99.5%/0.5% bimodal mix, and the heavier-tailed shapes
// (exponential, log-normal, Pareto) used by the extension experiments.
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"
)

// Distribution produces positive durations. Implementations must be
// deterministic given the caller's RNG, so simulations are reproducible.
type Distribution interface {
	// Sample draws one value using r.
	Sample(r *rand.Rand) time.Duration
	// Mean returns the distribution's expected value.
	Mean() time.Duration
	// String describes the distribution in the same mini-language accepted
	// by Parse.
	String() string
}

// Fixed is a degenerate distribution: every sample equals D.
type Fixed struct {
	D time.Duration
}

// Sample implements Distribution.
func (f Fixed) Sample(*rand.Rand) time.Duration { return f.D }

// Mean implements Distribution.
func (f Fixed) Mean() time.Duration { return f.D }

func (f Fixed) String() string { return fmt.Sprintf("fixed:%s", f.D) }

// Bimodal mixes two fixed service times. The paper's Figure 2 workload is
// Bimodal{P1: 0.995, D1: 5µs, D2: 100µs}.
type Bimodal struct {
	// P1 is the probability of drawing D1; D2 is drawn otherwise.
	P1     float64
	D1, D2 time.Duration
}

// Sample implements Distribution.
func (b Bimodal) Sample(r *rand.Rand) time.Duration {
	if r.Float64() < b.P1 {
		return b.D1
	}
	return b.D2
}

// Mean implements Distribution.
func (b Bimodal) Mean() time.Duration {
	m := b.P1*float64(b.D1) + (1-b.P1)*float64(b.D2)
	return time.Duration(m)
}

func (b Bimodal) String() string {
	return fmt.Sprintf("bimodal:%g:%s:%s", b.P1, b.D1, b.D2)
}

// Exponential has the given mean; it models memoryless service times and is
// also the inter-arrival distribution of the open-loop Poisson load
// generator.
type Exponential struct {
	M time.Duration
}

// Sample implements Distribution.
func (e Exponential) Sample(r *rand.Rand) time.Duration {
	d := time.Duration(r.ExpFloat64() * float64(e.M))
	if d <= 0 {
		d = 1 // clamp: zero-length work items confuse occupancy accounting
	}
	return d
}

// Mean implements Distribution.
func (e Exponential) Mean() time.Duration { return e.M }

func (e Exponential) String() string { return fmt.Sprintf("exp:%s", e.M) }

// LogNormal is parameterized by the underlying normal's mu and sigma, with
// durations expressed in nanoseconds: a sample is exp(mu + sigma·Z) ns.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample implements Distribution.
func (l LogNormal) Sample(r *rand.Rand) time.Duration {
	d := time.Duration(math.Exp(l.Mu + l.Sigma*r.NormFloat64()))
	if d <= 0 {
		d = 1
	}
	return d
}

// Mean implements Distribution.
func (l LogNormal) Mean() time.Duration {
	return time.Duration(math.Exp(l.Mu + l.Sigma*l.Sigma/2))
}

func (l LogNormal) String() string { return fmt.Sprintf("lognormal:%g:%g", l.Mu, l.Sigma) }

// Pareto is a bounded Pareto with shape Alpha and minimum Min, truncated at
// Max (0 means untruncated). High-dispersion FaaS-like workloads use this.
type Pareto struct {
	Min   time.Duration
	Alpha float64
	Max   time.Duration
}

// Sample implements Distribution.
func (p Pareto) Sample(r *rand.Rand) time.Duration {
	u := r.Float64()
	//lint:allow floateq rejecting the exact value 0 from the seeded rng; any nonzero u is a valid draw
	for u == 0 {
		u = r.Float64()
	}
	d := time.Duration(float64(p.Min) / math.Pow(u, 1/p.Alpha))
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if d <= 0 {
		d = 1
	}
	return d
}

// Mean implements Distribution. For Alpha <= 1 the untruncated mean
// diverges; a truncated Pareto falls back to a numeric estimate.
func (p Pareto) Mean() time.Duration {
	if p.Max == 0 {
		if p.Alpha <= 1 {
			return time.Duration(math.MaxInt64)
		}
		return time.Duration(p.Alpha * float64(p.Min) / (p.Alpha - 1))
	}
	// Mean of a bounded Pareto on [L, H].
	l, h, a := float64(p.Min), float64(p.Max), p.Alpha
	//lint:allow floateq alpha exactly 1 selects the log-form closed formula; the general branch handles every nearby alpha
	if a == 1 {
		return time.Duration(l * h / (h - l) * math.Log(h/l))
	}
	num := math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (a - 1) *
		(1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
	return time.Duration(num)
}

func (p Pareto) String() string {
	if p.Max > 0 {
		return fmt.Sprintf("pareto:%s:%g:%s", p.Min, p.Alpha, p.Max)
	}
	return fmt.Sprintf("pareto:%s:%g", p.Min, p.Alpha)
}

// Uniform draws uniformly from [Lo, Hi].
type Uniform struct {
	Lo, Hi time.Duration
}

// Sample implements Distribution.
func (u Uniform) Sample(r *rand.Rand) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(r.Int64N(int64(u.Hi-u.Lo)+1))
}

// Mean implements Distribution.
func (u Uniform) Mean() time.Duration { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform:%s:%s", u.Lo, u.Hi) }

// Parse reads the textual mini-language used by the CLIs:
//
//	fixed:5us
//	bimodal:0.995:5us:100us
//	exp:10us
//	lognormal:8.5:1.2
//	pareto:1us:1.5[:1ms]
//	uniform:1us:10us
func Parse(s string) (Distribution, error) {
	fields := strings.Split(s, ":")
	bad := func() (Distribution, error) {
		return nil, fmt.Errorf("dist: cannot parse %q", s)
	}
	dur := func(f string) (time.Duration, bool) {
		d, err := time.ParseDuration(f)
		return d, err == nil && d > 0
	}
	switch fields[0] {
	case "fixed":
		if len(fields) != 2 {
			return bad()
		}
		d, ok := dur(fields[1])
		if !ok {
			return bad()
		}
		return Fixed{D: d}, nil
	case "bimodal":
		if len(fields) != 4 {
			return bad()
		}
		p, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || p < 0 || p > 1 {
			return bad()
		}
		d1, ok1 := dur(fields[2])
		d2, ok2 := dur(fields[3])
		if !ok1 || !ok2 {
			return bad()
		}
		return Bimodal{P1: p, D1: d1, D2: d2}, nil
	case "exp":
		if len(fields) != 2 {
			return bad()
		}
		d, ok := dur(fields[1])
		if !ok {
			return bad()
		}
		return Exponential{M: d}, nil
	case "lognormal":
		if len(fields) != 3 {
			return bad()
		}
		mu, err1 := strconv.ParseFloat(fields[1], 64)
		sigma, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || sigma < 0 {
			return bad()
		}
		return LogNormal{Mu: mu, Sigma: sigma}, nil
	case "pareto":
		if len(fields) != 3 && len(fields) != 4 {
			return bad()
		}
		min, ok := dur(fields[1])
		if !ok {
			return bad()
		}
		alpha, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || alpha <= 0 {
			return bad()
		}
		p := Pareto{Min: min, Alpha: alpha}
		if len(fields) == 4 {
			max, ok := dur(fields[3])
			if !ok || max < min {
				return bad()
			}
			p.Max = max
		}
		return p, nil
	case "uniform":
		if len(fields) != 3 {
			return bad()
		}
		lo, ok1 := dur(fields[1])
		hi, ok2 := dur(fields[2])
		if !ok1 || !ok2 || hi < lo {
			return bad()
		}
		return Uniform{Lo: lo, Hi: hi}, nil
	}
	return bad()
}
