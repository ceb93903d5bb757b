package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"mindgap/internal/dist"
	"mindgap/internal/params"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
)

// This file is the one path from scenario specs (scenarios/*.json, or
// inline specs such as hypothesis arms) to the sweep runner: a spec is
// resolved against a run-time Quality, its load axis is expanded into
// runner points whose cache keys derive from Spec.Fingerprint(), and
// every point is measured by a row kind. Figures, tables,
// `mindgap-sim -scenario` and internal/hypothesis all go through
// SpecSeries and Run.

// QualityFor resolves the effective sample counts and seed for one spec:
// the run-time quality, overridden by any spec-pinned QualitySpec, with
// a spec-pinned seed winning over the quality's.
func QualityFor(sp scenario.Spec, q Quality) Quality {
	if sp.Quality != nil {
		if sp.Quality.Warmup > 0 {
			q.Warmup = sp.Quality.Warmup
		}
		if sp.Quality.Measure > 0 {
			q.Measure = sp.Quality.Measure
		}
	}
	if sp.Seed != 0 {
		q.Seed = sp.Seed
	}
	return q
}

// SpecLoads resolves a spec's load declaration into offered-RPS values.
// Utilization-derived loads (rho) are computed here — never stored as
// floats in preset files — so every caller describing the same scenario
// gets bit-identical loads, and therefore shared cache keys. A k or flow
// sweep resolves to its one fixed offered rate, a tenant mix to its
// tenants' combined rate.
func SpecLoads(sp scenario.Spec) ([]float64, error) {
	l := sp.Load
	switch {
	case len(sp.Tenants) > 0:
		var total float64
		for _, t := range sp.Tenants {
			total += t.RPS
		}
		return []float64{total}, nil
	case l == nil:
		return nil, nil
	case l.Grid != nil:
		return l.Grid.Points(), nil
	case l.Rho > 0:
		svc, err := dist.Parse(sp.Workload)
		if err != nil {
			return nil, err
		}
		return []float64{l.Rho * float64(sp.KnobsOrZero().Workers) / svc.Mean().Seconds()}, nil
	default:
		return []float64{l.RPS}, nil
	}
}

// paramsSig fingerprints the calibrated model constants, so cached results
// are invalidated when the calibration (params.Default) changes.
var paramsSig = sync.OnceValue(func() string {
	b, err := json.Marshal(params.Default())
	if err != nil {
		// Params is a plain struct of numbers; Marshal cannot fail. Guard
		// anyway: an empty signature merely widens cache collisions across
		// calibrations, it never corrupts results.
		return "params-unknown"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
})

// SpecPointKey builds the cache identity of one measured point from the
// spec fingerprint: the spec with its load pinned to the single offered
// rate and the effective quality and seed baked in, plus the calibration
// fingerprint. Any two callers that describe the same scenario — series of
// different figures, a table and a figure, a hypothesis arm, a replicate —
// share the entry of each row type, on disk and in the runner's memo;
// extra encodes what the pinned spec cannot (the swept axis value).
func SpecPointKey(sp scenario.Spec, q Quality, rps float64, extra ...string) string {
	id := sp
	id.Load = &scenario.LoadSpec{RPS: rps}
	id.Quality = &scenario.QualitySpec{Warmup: q.Warmup, Measure: q.Measure}
	id.Seed = q.Seed
	k := id.Fingerprint() + "|params=" + paramsSig()
	for _, e := range extra {
		k += "|" + e
	}
	return k
}

// PointConfigFor compiles a spec into a runnable point config (offered
// load left to the caller): registry build, workload parse (the spec's
// own, or one per tenant), keys, and effective quality.
func PointConfigFor(sp scenario.Spec, q Quality) (PointConfig, error) {
	f, err := scenario.Build(sp)
	if err != nil {
		return PointConfig{}, err
	}
	eq := QualityFor(sp, q)
	cfg := PointConfig{
		Factory: f,
		Warmup:  eq.Warmup,
		Measure: eq.Measure,
		Seed:    eq.Seed,
	}
	for _, t := range sp.Tenants {
		svc, err := dist.Parse(t.Workload)
		if err != nil {
			return PointConfig{}, err
		}
		cfg.Tenants = append(cfg.Tenants, Tenant{RPS: t.RPS, Service: svc})
	}
	if len(cfg.Tenants) == 0 {
		if cfg.Service, err = dist.Parse(sp.Workload); err != nil {
			return PointConfig{}, err
		}
	}
	if sp.Keys != nil {
		cfg.Keys = sp.Keys.Keys()
	}
	cfg.Flow = sp.Flow
	return cfg, nil
}

// Kind is a row kind: what measuring one point of a spec yields. The
// kinds are Plain (a Result), Attributed, FlowRuleDetail, ShortTail,
// Affinity and TenantMix. Points are keyed by the scenario alone and the
// runner files each row under its type, so the rule every kind keeps is:
// a kind that changes how a point runs returns its own row type.
type Kind[T any] struct {
	// run measures one compiled point of sp (the swept axis value already
	// applied, offered rate and effective quality set in cfg). x is the
	// point's reported coordinate: the offered rate, or the k / flow
	// population of a sweep. It is called on a runner worker and must
	// share no mutable state with sibling points: a kind that attaches
	// an observer rebuilds the factory around a fresh one.
	run func(cfg PointConfig, sp scenario.Spec, x float64) T
	// variants, when set, measures several configurations derived from
	// the spec as consecutive points of its series.
	variants func(sp scenario.Spec) []scenario.Spec
}

// Plain measures the conventional latency-vs-load row.
var Plain = Kind[Result]{
	run: func(cfg PointConfig, _ scenario.Spec, x float64) Result {
		r := RunPoint(cfg)
		r.Point.OfferedRPS = x
		return r
	},
}

// observed rebuilds sp's factory with observers attached, for row kinds
// running on a worker. SpecSeries already built the spec once, so
// failure means the system cannot carry the observer — a programmer
// error in the preset, not a run-time condition.
func observed(sp scenario.Spec, o scenario.Options) scenario.Factory {
	f, err := scenario.BuildWith(sp, o)
	if err != nil {
		panic(fmt.Sprintf("experiment: rebuild with observers failed: %v", err))
	}
	return f
}

// SpecSeries compiles one resolved spec into a runner series of row kind
// k by expanding its load axis, in axis order: a load grid (ending after
// the second consecutive saturated point, like the paper's figures), a
// utilization or fixed rate (one point), a k sweep (one point per
// outstanding limit at the spec's fixed, saturating rate, reported
// against k) or a flow sweep (one point per concurrent-flow population,
// reported against the population; no early stop — its whole point is
// life on both sides of the fast-path crossover). Every point is keyed
// by SpecPointKey.
func SpecSeries[T any](label string, sp scenario.Spec, q Quality, k Kind[T]) (runner.Series[T], error) {
	s := runner.Series[T]{Label: label}
	if sp.Load != nil && sp.Load.Grid != nil {
		s.StopAfterSaturated = 2
	}
	specs := []scenario.Spec{sp}
	if k.variants != nil {
		specs = k.variants(sp)
	}
	for _, v := range specs {
		loads, err := SpecLoads(v)
		if err != nil {
			return s, err
		}
		// A sweep applies each axis value to the spec, tags the cache key
		// with it and reports it as x; every other load shape measures
		// the spec itself against its offered rates.
		type axisValue struct {
			sp  scenario.Spec
			x   float64
			tag string
		}
		var axis []axisValue
		switch l := v.Load; {
		case l != nil && l.KSweep != nil:
			for n := l.KSweep.Lo; n <= l.KSweep.Hi; n++ {
				axis = append(axis, axisValue{v.WithOutstanding(n), float64(n), "k=" + strconv.Itoa(n)})
			}
		case l != nil && l.FSweep != nil:
			for _, n := range l.FSweep.Points() {
				axis = append(axis, axisValue{v.WithFlows(n), float64(n), "flows=" + strconv.Itoa(n)})
			}
		default:
			axis = []axisValue{{sp: v}}
		}
		for _, a := range axis {
			cfg, err := PointConfigFor(a.sp, q)
			if err != nil {
				return s, err
			}
			eq := QualityFor(a.sp, q)
			var extra []string
			if a.tag != "" {
				extra = append(extra, a.tag)
			}
			for _, rps := range loads {
				cfg, x := cfg, rps
				cfg.OfferedRPS = rps
				if a.tag != "" {
					x = a.x
				}
				s.Points = append(s.Points, runner.Point[T]{
					Key: SpecPointKey(a.sp, eq, rps, extra...),
					Run: func() T { return k.run(cfg, a.sp, x) },
				})
			}
		}
	}
	return s, nil
}

// Run measures every series of a preset as rows of kind k on rn (nil =
// default parallel runner) and returns one result per series, in preset
// order; the output is byte-identical at any parallelism. On
// cancellation it returns the completed prefix of every series together
// with the context error. It is the single entry point behind every
// figure and table; the table types are pure reductions over its output.
func Run[T any](ctx context.Context, rn *runner.Runner, p scenario.Preset, q Quality, k Kind[T]) ([]runner.SeriesResult[T], error) {
	sw := runner.Sweep[T]{Name: p.ID}
	for i := range p.Series {
		s, err := SpecSeries(p.Series[i].Label, p.SpecFor(i), q, k)
		if err != nil {
			return nil, fmt.Errorf("experiment: preset %q series %q: %w", p.ID, p.Series[i].Label, err)
		}
		sw.Series = append(sw.Series, s)
	}
	return runner.Run(ctx, rn, sw)
}

// Rows flattens per-series results into one row list, in preset order.
func Rows[T any](res []runner.SeriesResult[T]) []T {
	var out []T
	for _, sr := range res {
		out = append(out, sr.Results...)
	}
	return out
}
