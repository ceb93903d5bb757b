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
	"mindgap/internal/systems/flowrule"
	"mindgap/internal/systems/rtc"
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
// what a spec may set on it, and the function that assembles it.
type Builder struct {
	// Name is the registry key ("offload", "shinjuku", ...).
	Name string
	// Doc is a one-line description for -list-systems.
	Doc string
	// Reads is everything a spec may set on this kind, because the built
	// system reads it: knobs by JSON name ("workers"), the blocks "faults",
	// "flow" (then also required) and "class" (a tenant class above 0),
	// and params.Params durations by Go name ("NicHostOneWay"). A spec
	// that sets anything else is refused, so a misplaced value fails
	// loudly instead of silently running the wrong experiment.
	Reads []string
	// Observable marks systems that accept Options.Metrics: the built
	// system implements RegisterTelemetry, which registers the gauges the
	// benchmark reads. Others refuse a registry instead of silently
	// returning an empty snapshot.
	Observable bool
	// Build assembles the factory from the validated spec (it sets only
	// what Reads lists) and the model constants its calibration yields
	// (Spec.Params).
	Build func(o Options, sp Spec, p params.Params) (Factory, error)
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
	p, err := sp.Params()
	if err != nil {
		return nil, err
	}
	return b.Build(o, sp, p)
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

// rtcBuilder makes a steered-pool builder (RSS, ZygOS, Flow Director and
// eRSS differ only in steering and stealing, which may read more).
func rtcBuilder(name, doc string, cfg rtc.Config, reads ...string) Builder {
	return Builder{
		Name: name,
		Doc:  doc,
		Reads: append([]string{"workers",
			"ClientWireOneWay", "HostNetworkerCost", "PickupMemPenalty", "WorkerPickupCost", "WorkerResponseCost"}, reads...),
		Build: func(o Options, sp Spec, p params.Params) (Factory, error) {
			c := cfg
			c.P, c.Workers = p, sp.KnobsOrZero().Workers
			return factory(o, c, rtc.New)
		},
	}
}

// centralBuilder makes a builder for a dispatcher beside the cores
// (vanilla Shinjuku and RPCValet differ in where it sits); a knob the kind
// does not read is zero here.
func centralBuilder(name, doc string, mode core.CentralMode, reads ...string) Builder {
	return Builder{
		Name:  name,
		Doc:   doc,
		Reads: reads,
		Build: func(o Options, sp Spec, p params.Params) (Factory, error) {
			k := sp.KnobsOrZero()
			cfg := core.CentralConfig{P: p, Workers: k.Workers, Slice: k.Slice.D(), Sockets: k.Sockets, Mode: mode}
			return factory(o, cfg, core.NewCentral)
		},
	}
}

func init() {
	Register(Builder{
		Name: "offload",
		Doc:  "Shinjuku-Offload: the paper's informed NIC-resident scheduler (§3); directirq: the §5.1 posted-interrupt ablation (the cost-only ablations are calibration blocks)",
		Reads: []string{"workers", "outstanding", "slice", "policy", "dispatch_burst", "affinity", "directirq", "faults", "class",
			"ArmCreditCost", "ArmNetworkerCost", "ArmQueueCost", "ArmRxCost", "ArmShm", "ArmTxCost", "ClientWireOneWay",
			"CtxMigratePenalty", "CtxResumeCost", "CtxSaveCost", "NicHostOneWay", "PickupMemPenalty", "WorkerNotifyCost",
			"WorkerPickupCost", "WorkerResponseCost", "CXLOneWay"},
		Observable: true,
		Build: func(o Options, sp Spec, p params.Params) (Factory, error) {
			k := sp.KnobsOrZero()
			pol, err := ParsePolicy(k.Policy)
			if err != nil {
				return nil, err
			}
			if k.Outstanding < 1 {
				return nil, fmt.Errorf("scenario: offload needs outstanding >= 1")
			}
			cfg := core.OffloadConfig{
				P:                p,
				Workers:          k.Workers,
				Outstanding:      k.Outstanding,
				Slice:            k.Slice.D(),
				Policy:           pol,
				DispatchBurst:    k.DispatchBurst,
				Affinity:         k.Affinity,
				DirectInterrupts: k.DirectInterrupts,
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

	Register(centralBuilder("shinjuku",
		"vanilla Shinjuku: host-core networker + dispatcher baseline (§2.1)",
		core.HostCore, "workers", "slice", "sockets",
		"CacheLine", "ClientWireOneWay", "CtxMigratePenalty", "CtxResumeCost", "CtxSaveCost", "HostCompletionCost",
		"HostDispatchCost", "HostNetworkerCost", "PickupMemPenalty", "WorkerPickupCost", "WorkerResponseCost", "NUMAPenalty"))

	Register(rtcBuilder("rss",
		"IX-style RSS: hash steering, run to completion, no preemption (§2.1)",
		rtc.Config{}))
	Register(rtcBuilder("zygos",
		"ZygOS: RSS steering plus work stealing from sibling queues (§2.1)",
		rtc.Config{WorkStealing: true}, "StealCost"))
	Register(rtcBuilder("flowdir",
		"MICA-style Flow Director: key-affinity steering, run to completion (§2.1)",
		rtc.Config{Steering: rtc.SteerKey}))

	Register(centralBuilder("rpcvalet",
		"RPCValet: NI-integrated single queue, no preemption (§2.1)",
		core.IntegratedNI, "workers",
		"ClientWireOneWay", "PickupMemPenalty", "RPCValetDispatchCost", "RPCValetLinkLatency", "WorkerPickupCost", "WorkerResponseCost"))

	Register(rtcBuilder("erss",
		"Elastic RSS: load feedback resizes the core set, fixed policy (§5.1)",
		rtc.Config{Steering: rtc.SteerElastic}))

	Register(Builder{
		Name:       "flowrule",
		Doc:        "SmartNIC flow-rule offload: bounded rule insertion, LRU table, fast/slow path steering",
		Reads:      []string{"workers", "offload_threshold", "adaptive_threshold", "flow", "ClientWireOneWay"},
		Observable: true,
		Build: func(o Options, sp Spec, p params.Params) (Factory, error) {
			k := sp.KnobsOrZero()
			cfg := flowrule.Config{
				P:         p,
				Workers:   k.Workers,
				Threshold: k.OffloadThreshold,
				Adaptive:  k.AdaptiveThreshold,
			}
			return factory(o, cfg, flowrule.New)
		},
	})
}
