package experiment

import (
	"context"
	"math"
	"time"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
)

// Replicated summarizes one load point measured across several independent
// seeds — the error bars a careful reproduction reports.
type Replicated struct {
	// Runs holds the individual results in seed order.
	Runs []Result
	// MeanP99 and P99StdDev summarize the tail metric across seeds.
	MeanP99   time.Duration
	P99StdDev time.Duration
	// MeanAchieved and AchievedStdDev summarize throughput.
	MeanAchieved   float64
	AchievedStdDev float64
	// AnySaturated reports whether any replicate saturated.
	AnySaturated bool
}

// Replicate measures sp's load point(s) across the given seeds — one
// independent simulation per seed, fanned out on rn and cached under the
// same fingerprint-derived keys as every other point — and returns
// cross-seed summary statistics. The explicit seed list replaces both
// q.Seed and any spec-pinned seed; a spec that pins one panics, because
// the pin would win over the list and silently collapse the replicates
// into one seed.
func Replicate(ctx context.Context, rn *runner.Runner, sp scenario.Spec, q Quality, seeds []uint64) (Replicated, error) {
	if len(seeds) == 0 {
		panic("experiment: need at least one seed")
	}
	if sp.Seed != 0 {
		panic("experiment: spec pins a seed alongside an explicit seed list; zero Spec.Seed (the seed list replaces it)")
	}
	var all runner.Series[Result]
	for _, seed := range seeds {
		q.Seed = seed
		s, err := SpecSeries("", sp, q, Plain)
		if err != nil {
			return Replicated{}, err
		}
		all.Points = append(all.Points, s.Points...)
	}
	runs, err := runner.RunOne(ctx, rn, "replicate", all)
	rep := Replicated{Runs: runs}
	var p99s, tputs []float64
	for _, r := range runs {
		p99s = append(p99s, float64(r.P99))
		tputs = append(tputs, r.AchievedRPS)
		rep.AnySaturated = rep.AnySaturated || r.Saturated
	}
	mean, sd := meanStd(p99s)
	rep.MeanP99, rep.P99StdDev = time.Duration(mean), time.Duration(sd)
	rep.MeanAchieved, rep.AchievedStdDev = meanStd(tputs)
	return rep, err
}

// RelativeP99Spread returns the coefficient of variation of p99 across
// seeds — the run-to-run noise figure quoted in EXPERIMENTS.md.
func (r Replicated) RelativeP99Spread() float64 {
	if r.MeanP99 == 0 {
		return 0
	}
	return float64(r.P99StdDev) / float64(r.MeanP99)
}

// meanStd returns the sample mean and (population) standard deviation.
func meanStd(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var acc float64
	for _, x := range xs {
		d := x - mean
		acc += d * d
	}
	return mean, math.Sqrt(acc / float64(len(xs)))
}
