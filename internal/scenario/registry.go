package scenario

import (
	"fmt"
	"sort"
	"strings"

	"mindgap/internal/attr"
	"mindgap/internal/core"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/systems/erss"
	"mindgap/internal/systems/flowrule"
	"mindgap/internal/systems/idealnic"
	"mindgap/internal/systems/rpcvalet"
	"mindgap/internal/systems/rtc"
	"mindgap/internal/systems/shinjuku"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
	"mindgap/internal/trace"
)

// Options carries per-run wiring that is not part of a scenario's
// identity: optional observability sinks. Tracer and Attr are consumers
// of the lifecycle probe every system reports through, so every system
// accepts them.
type Options struct {
	// Tracer, when non-nil, records request lifecycles.
	Tracer *trace.Buffer
	// Metrics, when non-nil, receives the built system's read-time gauges.
	// Only systems whose builders declare Observable accept it.
	Metrics *telemetry.Registry
	// Attr, when non-nil, attaches the latency-attribution collector:
	// per-request phase decomposition plus a ground-truth decision audit.
	Attr *attr.Collector
}

// factory adapts a model constructor — they all share one shape — to the
// Factory signature, assembling the run's lifecycle probe from the
// factory's recorder and the options' tracer and collector, and wiring the
// built system's gauges into the options' registry when one is attached
// (BuildWith lets only Observable builders get that far).
func factory[C any, S System](o Options, cfg C, build func(*sim.Engine, C, *probe.Probe, func(*task.Request)) S) (Factory, error) {
	return func(eng *sim.Engine, rec *stats.Recorder, done func(*task.Request)) System {
		sys := build(eng, cfg, &probe.Probe{Rec: rec, Trace: o.Tracer, Attr: o.Attr}, done)
		if o.Metrics != nil {
			any(sys).(observable).RegisterTelemetry(o.Metrics)
		}
		return sys
	}, nil
}

// observable is the system an Observable builder assembles: it wires its
// gauges into a telemetry registry.
type observable interface {
	RegisterTelemetry(*telemetry.Registry)
}

// Builder registers one system kind: its registry name, documentation,
// the knobs it accepts, and the function that assembles it.
type Builder struct {
	// Name is the registry key ("offload", "shinjuku", ...).
	Name string
	// Doc is a one-line description for -list-systems.
	Doc string
	// Knobs lists the JSON names of the knobs this kind accepts; Build
	// rejects specs that set any other knob.
	Knobs []string
	// Observable marks systems that accept Options.Metrics: the built
	// system implements RegisterTelemetry, which registers the gauges the
	// benchmark reads. Others refuse a registry instead of silently
	// returning an empty snapshot.
	Observable bool
	// Faultable marks systems that accept a Spec.Faults schedule — they
	// can stretch, drop, retry, and degrade. Systems without the machinery
	// refuse faulted specs instead of silently simulating healthy hardware.
	Faultable bool
	// FlowWorkload marks systems that key on flow identity: they require
	// a Spec.Flow block (and are driven by the flow generator), while
	// every other system rejects one — the workload model is part of the
	// contract, not a silent default.
	FlowWorkload bool
	// PriorityClasses marks systems whose central queue can be split into
	// strict priority classes; every other system refuses a tenant whose
	// class is above 0 instead of quietly serving it from one FIFO.
	PriorityClasses bool
	// Build assembles the factory from the validated spec (knobs have
	// passed checkKnobs; faulted specs have passed the fault gate).
	Build func(o Options, sp Spec) (Factory, error)
}

// checkKnobs rejects knobs the kind does not accept.
func (b Builder) checkKnobs(k Knobs) error {
	allowed := make(map[string]bool, len(b.Knobs))
	for _, n := range b.Knobs {
		allowed[n] = true
	}
	var bad []string
	_, set := k.Names()
	for _, n := range set {
		if !allowed[n] {
			bad = append(bad, n)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("scenario: system %q does not accept knob(s) %s (accepted: %s)",
			b.Name, strings.Join(bad, ", "), strings.Join(b.Knobs, ", "))
	}
	return nil
}

// registry maps system names to builders. It is written once during
// package init and read-only afterwards.
var registry = map[string]Builder{}

// Register adds a system kind; duplicate names are a programmer error.
func Register(b Builder) {
	if b.Name == "" || b.Build == nil {
		panic("scenario: Register needs a name and a build function")
	}
	if _, dup := registry[b.Name]; dup {
		panic("scenario: duplicate system " + b.Name)
	}
	registry[b.Name] = b
}

// Lookup returns the builder registered under name.
func Lookup(name string) (Builder, bool) {
	b, ok := registry[name]
	return b, ok
}

// Systems returns every registered builder, sorted by name.
func Systems() []Builder {
	out := make([]Builder, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SystemNames returns the sorted registry names.
func SystemNames() []string {
	sys := Systems()
	out := make([]string, len(sys))
	for i, b := range sys {
		out[i] = b.Name
	}
	return out
}

func unknownSystemError(name string) error {
	return fmt.Errorf("scenario: unknown system %q (known: %s)",
		name, strings.Join(SystemNames(), ", "))
}

// Build assembles the spec's system factory with default options. It is
// the single assembly point for every system in the repository: knob
// validation happens here, so an invalid spec fails before any
// simulation runs.
func Build(sp Spec) (Factory, error) { return BuildWith(sp, Options{}) }

// BuildWith assembles the spec's system factory with explicit options.
func BuildWith(sp Spec, o Options) (Factory, error) {
	b, err := sp.builder()
	if err != nil {
		return nil, err
	}
	if sp.KnobsOrZero().Workers < 1 {
		return nil, fmt.Errorf("scenario: system %q needs workers >= 1", sp.System)
	}
	if o.Metrics != nil && !b.Observable {
		return nil, fmt.Errorf("scenario: system %q does not support telemetry", sp.System)
	}
	return b.Build(o, sp)
}

// ParsePolicy maps a policy knob string to the core policy; the empty
// string is the default (least-outstanding, the paper prototype's
// idle-first FIFO dispatch).
func ParsePolicy(s string) (core.Policy, error) {
	switch s {
	case "", core.LeastOutstanding.String():
		return core.LeastOutstanding, nil
	case core.RoundRobin.String():
		return core.RoundRobin, nil
	case core.InformedLeastLoaded.String():
		return core.InformedLeastLoaded, nil
	}
	return 0, fmt.Errorf("scenario: unknown policy %q (known: %s, %s, %s)",
		s, core.LeastOutstanding, core.RoundRobin, core.InformedLeastLoaded)
}

// rtcBuilder makes a run-to-completion variant builder (RSS, ZygOS,
// Flow Director differ only in steering and stealing).
func rtcBuilder(name, doc string, cfg func(k Knobs) rtc.Config) Builder {
	return Builder{
		Name:  name,
		Doc:   doc,
		Knobs: []string{"workers", "queue_cap"},
		Build: func(o Options, sp Spec) (Factory, error) {
			k := sp.KnobsOrZero()
			c := cfg(k)
			c.P = params.Default()
			c.Workers = k.Workers
			c.QueueCap = k.QueueCap
			return factory(o, c, rtc.New)
		},
	}
}

func init() {
	Register(Builder{
		Name: "offload",
		Doc:  "Shinjuku-Offload: the paper's informed NIC-resident scheduler (§3)",
		Knobs: []string{"workers", "outstanding", "slice", "policy", "load_feedback",
			"dispatch_burst", "ddio_to_l1", "admission_limit", "affinity"},
		Observable:      true,
		Faultable:       true,
		PriorityClasses: true,
		Build: func(o Options, sp Spec) (Factory, error) {
			k := sp.KnobsOrZero()
			pol, err := ParsePolicy(k.Policy)
			if err != nil {
				return nil, err
			}
			if k.Outstanding < 1 {
				return nil, fmt.Errorf("scenario: offload needs outstanding >= 1")
			}
			cfg := core.OffloadConfig{
				P:              params.Default(),
				Workers:        k.Workers,
				Outstanding:    k.Outstanding,
				Slice:          k.Slice.D(),
				Policy:         pol,
				LoadFeedback:   k.LoadFeedback,
				DispatchBurst:  k.DispatchBurst,
				DDIOToL1:       k.DDIOToL1,
				AdmissionLimit: k.AdmissionLimit,
				Affinity:       k.Affinity,
			}
			for _, t := range sp.Tenants {
				cfg.PriorityClasses = max(cfg.PriorityClasses, t.Class+1)
			}
			if cfg.PriorityClasses > 1 {
				// drive stamps each request with its tenant's index.
				tenants := sp.Tenants
				cfg.ClassOf = func(r *task.Request) int { return tenants[r.ClientID].Class }
			}
			if sp.Faults != nil {
				// Each system instance compiles its own schedule: the loss
				// stream and counters are per-run state, and sweep points run
				// concurrently. The fault stream is seeded by the spec's
				// pinned seed (BuildWith enforces it is nonzero).
				cfg.FaultSpec = sp.Faults
				cfg.FaultSeed = sp.Seed
			}
			return factory(o, cfg, core.NewOffload)
		},
	})

	Register(Builder{
		Name:  "shinjuku",
		Doc:   "vanilla Shinjuku: host-core networker + dispatcher baseline (§2.1)",
		Knobs: []string{"workers", "outstanding", "slice", "policy", "sockets"},
		Build: func(o Options, sp Spec) (Factory, error) {
			k := sp.KnobsOrZero()
			pol, err := ParsePolicy(k.Policy)
			if err != nil {
				return nil, err
			}
			cfg := shinjuku.Config{
				P:           params.Default(),
				Workers:     k.Workers,
				Slice:       k.Slice.D(),
				Outstanding: k.Outstanding,
				Policy:      pol,
				Sockets:     k.Sockets,
			}
			return factory(o, cfg, shinjuku.New)
		},
	})

	Register(rtcBuilder("rss",
		"IX-style RSS: hash steering, run to completion, no preemption (§2.1)",
		func(Knobs) rtc.Config { return rtc.Config{} }))
	Register(rtcBuilder("zygos",
		"ZygOS: RSS steering plus work stealing from sibling queues (§2.1)",
		func(Knobs) rtc.Config { return rtc.Config{WorkStealing: true} }))
	Register(rtcBuilder("flowdir",
		"MICA-style Flow Director: key-affinity steering, run to completion (§2.1)",
		func(Knobs) rtc.Config { return rtc.Config{Steering: rtc.SteerKey} }))

	Register(Builder{
		Name:  "rpcvalet",
		Doc:   "RPCValet: NI-integrated single queue, no preemption (§2.1)",
		Knobs: []string{"workers"},
		Build: func(o Options, sp Spec) (Factory, error) {
			k := sp.KnobsOrZero()
			cfg := rpcvalet.Config{P: params.Default(), Workers: k.Workers}
			return factory(o, cfg, rpcvalet.New)
		},
	})

	Register(Builder{
		Name:  "erss",
		Doc:   "Elastic RSS: load feedback resizes the core set, fixed policy (§5.1)",
		Knobs: []string{"workers"},
		Build: func(o Options, sp Spec) (Factory, error) {
			cfg := erss.Config{P: params.Default(), Workers: sp.KnobsOrZero().Workers}
			return factory(o, cfg, erss.New)
		},
	})

	Register(Builder{
		Name: "flowrule",
		Doc:  "SmartNIC flow-rule offload: bounded rule insertion, LRU table, fast/slow path steering",
		Knobs: []string{"workers", "rule_capacity", "insert_rate", "insert_queue",
			"offload_threshold", "adaptive_threshold", "idle_timeout", "slow_queue"},
		Observable:   true,
		FlowWorkload: true,
		Build: func(o Options, sp Spec) (Factory, error) {
			k := sp.KnobsOrZero()
			cfg := flowrule.Config{
				P:              params.Default(),
				Workers:        k.Workers,
				RuleCapacity:   k.RuleCapacity,
				InsertRate:     k.InsertRate,
				InsertQueueCap: k.InsertQueue,
				Threshold:      k.OffloadThreshold,
				Adaptive:       k.AdaptiveThreshold,
				IdleTimeout:    k.IdleTimeout.D(),
				SlowQueueCap:   k.SlowQueue,
			}
			return factory(o, cfg, flowrule.New)
		},
	})

	Register(Builder{
		Name:       "idealnic",
		Doc:        "§5 ideal SmartNIC ablations: CXL memory, line-rate scheduler, direct interrupts",
		Knobs:      []string{"workers", "outstanding", "slice", "policy", "cxl", "linerate", "directirq"},
		Observable: true,
		Build: func(o Options, sp Spec) (Factory, error) {
			k := sp.KnobsOrZero()
			pol, err := ParsePolicy(k.Policy)
			if err != nil {
				return nil, err
			}
			if k.Outstanding < 1 {
				return nil, fmt.Errorf("scenario: idealnic needs outstanding >= 1")
			}
			cfg := idealnic.Config{
				P:                params.Default(),
				Workers:          k.Workers,
				Outstanding:      k.Outstanding,
				Slice:            k.Slice.D(),
				Policy:           pol,
				CXL:              k.CXL,
				LineRate:         k.LineRate,
				DirectInterrupts: k.DirectInterrupts,
			}
			return factory(o, cfg, idealnic.New)
		},
	})
}
