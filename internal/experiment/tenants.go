package experiment

import (
	"context"
	"fmt"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/dist"
	"mindgap/internal/loadgen"
	"mindgap/internal/params"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/scenarios"
)

// Tenant is one co-located application class (§2.2: "multiple co-located
// applications from different latency classes").
type Tenant struct {
	// Name labels the tenant in reports.
	Name string
	// RPS is the tenant's offered load.
	RPS float64
	// Service is the tenant's service-time distribution.
	Service dist.Distribution
	// Class is the tenant's priority class (0 = highest) when the system
	// under test runs PriorityLogic.
	Class int
}

// TenantResult is one tenant's measured latency profile.
type TenantResult struct {
	Tenant    Tenant
	P50, P99  time.Duration
	Mean      time.Duration
	Completed int64
}

// MultiTenantConfig describes the X9 experiment: several tenants sharing
// one Shinjuku-Offload server, with and without class-aware scheduling.
type MultiTenantConfig struct {
	P           params.Params
	Workers     int
	Outstanding int
	Slice       time.Duration
	// Priority selects PriorityLogic (strict classes) instead of one FIFO.
	Priority bool
	Tenants  []Tenant
	Quality  Quality
}

// RunMultiTenant drives all tenants open-loop against one server and
// returns per-tenant latency profiles.
func RunMultiTenant(cfg MultiTenantConfig) []TenantResult {
	if len(cfg.Tenants) == 0 {
		panic("experiment: need at least one tenant")
	}
	eng := sim.New()

	classes := 1
	for _, t := range cfg.Tenants {
		if t.Class+1 > classes {
			classes = t.Class + 1
		}
	}
	// ClientID indexes the tenant; the scheduler maps it to a class.
	tenants := cfg.Tenants
	classOf := func(r *task.Request) int { return tenants[r.ClientID].Class }

	ocfg := core.OffloadConfig{
		P:           cfg.P,
		Workers:     cfg.Workers,
		Outstanding: cfg.Outstanding,
		Slice:       cfg.Slice,
	}
	if cfg.Priority && classes > 1 {
		ocfg.PriorityClasses = classes
		ocfg.ClassOf = classOf
	}

	hist := make([]*stats.Histogram, len(tenants))
	counts := make([]int64, len(tenants))
	for i := range hist {
		hist[i] = &stats.Histogram{}
	}
	q := cfg.Quality
	target := q.Warmup + q.Measure
	completions := 0
	var sys *core.Offload
	sys = core.NewOffload(eng, ocfg, nil, func(r *task.Request) {
		completions++
		if completions > q.Warmup {
			hist[r.ClientID].Record(r.Latency(eng.Now()))
			counts[r.ClientID]++
		}
		if completions >= target {
			eng.Halt()
		}
	})

	var totalRPS float64
	for i, t := range tenants {
		loadgen.New(eng, loadgen.Config{
			RPS:      t.RPS,
			Service:  t.Service,
			Seed:     q.Seed + uint64(i)*7919,
			ClientID: uint32(i),
		}, sys.Inject).Start()
		totalRPS += t.RPS
	}
	// Watchdog sized like RunPoint's.
	expected := time.Duration(float64(target) / totalRPS * float64(time.Second))
	eng.At(sim.Time(8*expected+50*time.Millisecond), eng.Halt)
	eng.Run()

	out := make([]TenantResult, len(tenants))
	for i, t := range tenants {
		out[i] = TenantResult{
			Tenant:    t,
			P50:       hist[i].P50(),
			P99:       hist[i].P99(),
			Mean:      hist[i].Mean(),
			Completed: counts[i],
		}
	}
	return out
}

// MultiTenantComparison is the X9 headline contrast: the same tenant mix
// under one shared FIFO and under strict class priority.
type MultiTenantComparison struct {
	// FIFO and Priority hold per-tenant profiles for each discipline.
	FIFO, Priority []TenantResult
}

// MultiTenantComparisonWith measures the X9 scenario on rn: the FIFO and
// priority configurations are independent simulations and run
// concurrently. Each simulation itself is one engine driving all tenants,
// so it is the unit of parallelism.
func MultiTenantComparisonWith(ctx context.Context, rn *runner.Runner, cfg MultiTenantConfig) (MultiTenantComparison, error) {
	variant := func(priority bool) runner.Point[[]TenantResult] {
		c := cfg
		c.Priority = priority
		// Tenant mixes embed a service-time distribution (an interface),
		// which does not survive a JSON round-trip, so these points carry
		// no cache key.
		return runner.Point[[]TenantResult]{
			Run: func() []TenantResult { return RunMultiTenant(c) },
		}
	}
	runs, err := runner.RunOne(ctx, rn, "table-tenants",
		runner.Series[[]TenantResult]{Points: []runner.Point[[]TenantResult]{variant(false), variant(true)}})
	var out MultiTenantComparison
	if len(runs) > 0 {
		out.FIFO = runs[0]
	}
	if len(runs) > 1 {
		out.Priority = runs[1]
	}
	return out, err
}

// MultiTenantFromPreset compiles a tenants-style scenario preset (one
// with a Tenants list, like table-tenants) into a runnable
// MultiTenantConfig. The server knobs come from the preset's System +
// Knobs; tenant workloads are parsed from the dist mini-language.
func MultiTenantFromPreset(p scenario.Preset, q Quality) (MultiTenantConfig, error) {
	if len(p.Tenants) == 0 {
		return MultiTenantConfig{}, fmt.Errorf("experiment: preset %q declares no tenants", p.ID)
	}
	k := scenario.Spec{System: p.System, Knobs: p.Knobs}.KnobsOrZero()
	cfg := MultiTenantConfig{
		P:           params.Default(),
		Workers:     k.Workers,
		Outstanding: k.Outstanding,
		Slice:       k.Slice.D(),
		Quality:     q,
	}
	for _, t := range p.Tenants {
		svc, err := dist.Parse(t.Workload)
		if err != nil {
			return MultiTenantConfig{}, fmt.Errorf("experiment: preset %q tenant %q: %w", p.ID, t.Name, err)
		}
		cfg.Tenants = append(cfg.Tenants, Tenant{
			Name: t.Name, RPS: t.RPS, Service: svc, Class: t.Class,
		})
	}
	return cfg, nil
}

// DefaultMultiTenant returns the X9 scenario as checked in under
// scenarios/table-tenants.json: a latency-critical KVS tenant co-located
// with a batch-analytics tenant on a 4-worker offload server.
func DefaultMultiTenant(q Quality) MultiTenantConfig {
	cfg, err := MultiTenantFromPreset(scenarios.MustLoad("table-tenants"), q)
	if err != nil {
		panic(err) // the embedded preset is validated by tests
	}
	return cfg
}
