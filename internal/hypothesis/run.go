package hypothesis

import (
	"context"
	"fmt"

	"mindgap/internal/experiment"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
)

// Report is one executed hypothesis: the inputs, the per-seed (or
// per-load) measurements, the criterion verdict, and the analytic-twin
// check. Render writes it as a FINDINGS document.
type Report struct {
	Spec        Spec
	Fingerprint string
	// Quality is the effective sample-count/seed-independent quality both
	// arms ran at (the run-time quality merged with the spec's pin).
	Quality experiment.Quality
	// Rows holds per-seed outcomes (dominance/equivalence; nil for
	// crossover). Grid holds per-load cross-seed means (crossover only).
	Rows []SeedOutcome
	Grid []GridOutcome
	// Dominance/Equivalence/Crossover carries the criterion verdict for
	// the matching kind; the others are zero.
	Dominance   DominanceVerdict
	Equivalence EquivalenceVerdict
	Crossover   CrossoverVerdict
	// Twin is the analytic-twin check (nil when none was declared).
	Twin *TwinReport
	// Pass is the overall verdict: the criterion passed and the twin, if
	// declared, agreed.
	Pass bool
	// Reason is the one-line explanation rendered under the verdict.
	Reason string
}

// Run executes the hypothesis on the runner: every (arm, seed, load)
// point through the cached pool, then the pure verdict functions. The
// spec is validated first; q is the base quality (the spec's Quality
// block overrides its sample counts, each pinned seed overrides its
// seed).
func Run(ctx context.Context, rn *runner.Runner, h Spec, q experiment.Quality) (Report, error) {
	if err := h.Validate(); err != nil {
		return Report{}, err
	}
	// Merge the hypothesis quality pin exactly as scenario specs merge
	// theirs: through the experiment layer's resolver.
	eq := experiment.QualityFor(scenario.Spec{Quality: h.Quality}, q)

	loadsA, err := armLoads(h.A)
	if err != nil {
		return Report{}, fmt.Errorf("hypothesis %s: arm a: %w", h.ID, err)
	}
	loadsB, err := armLoads(h.B)
	if err != nil {
		return Report{}, fmt.Errorf("hypothesis %s: arm b: %w", h.ID, err)
	}

	def := metrics[h.Metric]
	var mA, mB []measurement
	if def.Audited {
		mA, mB, err = runArms(ctx, rn, h, eq, experiment.Attributed, func(r experiment.AttributionRow) measurement {
			return measurement{Result: r.Result, MisRate: r.Audit.MisRate}
		})
	} else {
		mA, mB, err = runArms(ctx, rn, h, eq, experiment.Plain, func(r experiment.Result) measurement {
			return measurement{Result: r}
		})
	}
	if err != nil {
		return Report{}, err
	}
	want := len(h.Seeds) * len(loadsA)
	if len(mA) != want || len(mB) != len(h.Seeds)*len(loadsB) {
		return Report{}, fmt.Errorf("hypothesis %s: incomplete run (%d/%d a-points, %d/%d b-points)",
			h.ID, len(mA), want, len(mB), len(h.Seeds)*len(loadsB))
	}

	rep := Report{Spec: h, Fingerprint: h.Fingerprint(), Quality: eq}
	if h.Criterion.Kind == Crossover {
		rep.Grid = gridOutcomes(loadsA, h.Seeds, mA, mB, def)
		rep.Crossover = EvalCrossover(rep.Grid, def.LowerBetter, *h.Criterion.Bracket)
		rep.Pass, rep.Reason = rep.Crossover.Pass, rep.Crossover.Reason
	} else {
		rep.Rows = seedOutcomes(h.Seeds, mA, mB, def)
		switch h.Criterion.Kind {
		case Dominance:
			rep.Dominance = EvalDominance(rep.Rows, def.LowerBetter, h.Criterion.MinMargin, h.Criterion.MinWinFrac)
			rep.Pass, rep.Reason = rep.Dominance.Pass, rep.Dominance.Reason
		case Equivalence:
			rep.Equivalence = EvalEquivalence(rep.Rows, h.Criterion.Tolerance)
			rep.Pass, rep.Reason = rep.Equivalence.Pass, rep.Equivalence.Reason
		}
	}

	if h.Analytic != nil {
		twin := evalTwin(h, loadsA, loadsB, mA, mB)
		rep.Twin = &twin
		if !twin.Pass {
			rep.Pass = false
			rep.Reason = "analytic twin disagrees: " + twin.Reason
		}
	}
	return rep, nil
}

// armLoads resolves an arm's load declaration to offered-RPS points.
func armLoads(a Arm) ([]float64, error) {
	loads, err := experiment.SpecLoads(a.Scenario)
	if err != nil {
		return nil, err
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("load resolves to no points")
	}
	return loads, nil
}

// runArms measures both arms as rows of kind k, one series per arm: seeds
// outer, loads inner, so per-seed rows are contiguous. Every seed's points
// come from experiment.SpecSeries with the seed substituted into the spec —
// the same compiler, row kinds and point keys as figures and tables, so a
// scenario a figure or another hypothesis already measured on the runner
// (or its cache) is reused. Arms keep every grid point: a crossover needs
// both sides of the knee. view reduces each row to what the verdicts read.
func runArms[T any](ctx context.Context, rn *runner.Runner, h Spec, q experiment.Quality, k experiment.Kind[T], view func(T) measurement) (mA, mB []measurement, err error) {
	sw := runner.Sweep[T]{Name: h.ID}
	for _, side := range []struct {
		label string
		arm   Arm
	}{{"a", h.A}, {"b", h.B}} {
		s := runner.Series[T]{Label: side.label}
		for _, seed := range h.Seeds {
			sp := side.arm.Scenario
			sp.Seed = seed
			seeded, err := experiment.SpecSeries(side.label, sp, q, k)
			if err != nil {
				return nil, nil, fmt.Errorf("hypothesis %s: arm %s: %w", h.ID, side.label, err)
			}
			s.Points = append(s.Points, seeded.Points...)
		}
		sw.Series = append(sw.Series, s)
	}
	res, err := runner.Run(ctx, rn, sw)
	if err != nil {
		return nil, nil, fmt.Errorf("hypothesis %s: %w", h.ID, err)
	}
	views := make([][]measurement, len(res))
	for i, sr := range res {
		for _, r := range sr.Results {
			views[i] = append(views[i], view(r))
		}
	}
	return views[0], views[1], nil
}

// seedOutcomes pairs the single-load measurements per seed.
func seedOutcomes(seeds []uint64, mA, mB []measurement, def MetricDef) []SeedOutcome {
	rows := make([]SeedOutcome, len(seeds))
	for i, seed := range seeds {
		rows[i] = SeedOutcome{Seed: seed, A: def.value(mA[i]), B: def.value(mB[i])}
	}
	return rows
}

// gridOutcomes reduces per-(seed, load) measurements to per-load
// cross-seed means, in grid order. Summation runs in fixed seed order,
// so the means — and every FINDINGS byte derived from them — are
// parallelism-independent.
func gridOutcomes(loads []float64, seeds []uint64, mA, mB []measurement, def MetricDef) []GridOutcome {
	out := make([]GridOutcome, len(loads))
	n := float64(len(seeds))
	for li, x := range loads {
		var sumA, sumB float64
		for si := range seeds {
			idx := si*len(loads) + li
			sumA += def.value(mA[idx])
			sumB += def.value(mB[idx])
		}
		out[li] = GridOutcome{X: x, A: sumA / n, B: sumB / n}
	}
	return out
}
