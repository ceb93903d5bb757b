package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/faults"
)

// SchemaVersion is baked into every fingerprint. Bump it whenever the
// Spec schema changes meaning (a renamed knob, a reinterpreted field),
// so cached results keyed by older fingerprints are never served.
const SchemaVersion = "mindgap-scenario/1"

// Duration is a time.Duration that serializes as a human-readable
// string ("10µs") in scenario files; plain nanosecond numbers are also
// accepted on decode. One type serves the scenario schema and the fault
// block it embeds.
type Duration = faults.Duration

// Knobs is the union of every per-system configuration knob. Which
// fields a given system kind accepts is declared by its registry
// Builder; Build rejects specs that set knobs their system ignores, so
// a typo'd or misplaced knob fails loudly instead of silently running
// the wrong experiment.
type Knobs struct {
	// Workers is the number of host worker cores (all systems).
	Workers int `json:"workers,omitempty"`
	// Outstanding is the per-worker outstanding-request limit k of the
	// §3.4.5 queuing optimization (offload, idealnic, shinjuku ablations).
	Outstanding int `json:"outstanding,omitempty"`
	// Slice is the preemption quantum; zero disables preemption.
	Slice Duration `json:"slice,omitempty"`
	// Policy is the worker-selection policy: "least-outstanding" (the
	// default), "round-robin", or "informed-least-loaded".
	Policy string `json:"policy,omitempty"`
	// LoadFeedback enables the host→NIC load reports that feed the
	// informed-least-loaded policy (offload).
	LoadFeedback bool `json:"load_feedback,omitempty"`
	// DispatchBurst is the queue-manager core's DPDK-style burst size
	// (offload; see the Figure 3 burst ablation).
	DispatchBurst int `json:"dispatch_burst,omitempty"`
	// DDIOToL1 models §5.2 direct-to-L1 packet placement (offload).
	DDIOToL1 bool `json:"ddio_to_l1,omitempty"`
	// AdmissionLimit bounds the central queue; the NIC sheds arrivals
	// beyond it (offload).
	AdmissionLimit int `json:"admission_limit,omitempty"`
	// Affinity resumes preempted requests on their previous worker when
	// possible (offload, §3.1).
	Affinity bool `json:"affinity,omitempty"`
	// Sockets models a multi-socket host with NUMA-blind dispatch
	// (shinjuku, §1).
	Sockets int `json:"sockets,omitempty"`
	// QueueCap bounds each per-core queue (rss/zygos/flowdir; 0 =
	// unbounded).
	QueueCap int `json:"queue_cap,omitempty"`
	// MinWorkers, Interval, UpThreshold and DownThreshold tune the
	// elastic provisioning loop (erss).
	MinWorkers    int      `json:"min_workers,omitempty"`
	Interval      Duration `json:"interval,omitempty"`
	UpThreshold   float64  `json:"up_threshold,omitempty"`
	DownThreshold float64  `json:"down_threshold,omitempty"`
	// CXL, LineRate and DirectInterrupts select the §5.1 ideal-NIC
	// ablations (idealnic).
	CXL              bool `json:"cxl,omitempty"`
	LineRate         bool `json:"linerate,omitempty"`
	DirectInterrupts bool `json:"directirq,omitempty"`
	// RuleCapacity, InsertRate and InsertQueue bound the fast-path rule
	// table and its insertion pipeline (flowrule).
	RuleCapacity int     `json:"rule_capacity,omitempty"`
	InsertRate   float64 `json:"insert_rate,omitempty"`
	InsertQueue  int     `json:"insert_queue,omitempty"`
	// OffloadThreshold is the packets-seen bar a flow must clear to earn
	// a fast-path rule; AdaptiveThreshold hands the bar to the adaptive
	// controller, adjusting every AdaptInterval (flowrule).
	OffloadThreshold  int      `json:"offload_threshold,omitempty"`
	AdaptiveThreshold bool     `json:"adaptive_threshold,omitempty"`
	AdaptInterval     Duration `json:"adapt_interval,omitempty"`
	// IdleTimeout evicts rules for flows gone quiet (flowrule).
	IdleTimeout Duration `json:"idle_timeout,omitempty"`
	// FastLatency and SlowLatency are the hardware fast-path transit
	// time and the software slow-path traversal overhead; SlowQueue
	// bounds the slow path's queue in batches (flowrule).
	FastLatency Duration `json:"fast_latency,omitempty"`
	SlowLatency Duration `json:"slow_latency,omitempty"`
	SlowQueue   int      `json:"slow_queue,omitempty"`
}

// Names returns the JSON names of the knobs in declaration order, read
// from the struct tags so a knob added to the schema needs no second
// list: all of them, and the ones k sets. Set means non-zero — the
// omitempty rule, so a knob is set exactly when the canonical encoding
// carries it.
func (k Knobs) Names() (all, set []string) {
	v := reflect.ValueOf(k)
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		all = append(all, name)
		if !v.Field(i).IsZero() {
			set = append(set, name)
		}
	}
	return all, set
}

// KeysSpec samples per-request application keys from a Zipf popularity
// distribution (key-steering baselines read them; informed schedulers
// ignore them).
type KeysSpec struct {
	N    int     `json:"n"`
	Skew float64 `json:"skew"`
}

// Keys builds the sampler.
func (k KeysSpec) Keys() *dist.ZipfKeys { return dist.NewZipfKeys(k.N, k.Skew) }

// Grid is an inclusive arithmetic load grid: Lo, Lo+Step, ..., Hi.
type Grid struct {
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Step float64 `json:"step"`
}

// Points materializes the grid. Points are generated by integer index
// (Lo + i·Step), never by accumulating x += Step, so long grids do not
// drift and a grid's points — and every fingerprint derived from them —
// are exactly reproducible.
func (g Grid) Points() []float64 {
	if g.Step <= 0 || g.Hi < g.Lo {
		return nil
	}
	n := int(math.Floor((g.Hi-g.Lo)/g.Step + 0.5))
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		x := g.Lo + float64(i)*g.Step
		if x > g.Hi+g.Step/2 {
			break
		}
		out = append(out, x)
	}
	return out
}

// KSweep varies the per-worker outstanding limit k from Lo to Hi at a
// fixed offered load — the x-axis of the paper's Figure 3.
type KSweep struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// FSweep varies the concurrent-flow population geometrically (Lo,
// Lo·Mul, ... up to Hi) at a fixed offered load — the x-axis of the
// flow-rule figure, where the question is how the fast-path hit rate
// and the slow path's headroom survive millions of concurrent flows.
// Points are exact integers, never accumulated floats.
type FSweep struct {
	Lo  int `json:"lo"`
	Hi  int `json:"hi"`
	Mul int `json:"mul"`
}

// Points materializes the population sweep.
func (f FSweep) Points() []int {
	if f.Lo < 1 || f.Mul < 2 || f.Hi < f.Lo {
		return nil
	}
	var out []int
	for n := f.Lo; n <= f.Hi; n *= f.Mul {
		out = append(out, n)
		if n > f.Hi/f.Mul {
			break // n*Mul would overflow past Hi
		}
	}
	return out
}

// FlowSpec keys the workload by flow identity: a fixed concurrent-flow
// population with an exact elephant/rat split, per-class packet trains,
// and per-class DPDK-style batch sizes. Systems that offload per-flow
// state (flowrule) require it; classic i.i.d. systems reject it. All
// fields beyond Flows are optional, with the loadgen defaults (4/64
// batches, 4/1024 trains) filling the gaps.
type FlowSpec struct {
	// Flows is the concurrent flow population (an fsweep load overrides
	// it per point).
	Flows int `json:"flows"`
	// ElephantFraction is the exact fraction of spawned flows that are
	// elephants.
	ElephantFraction float64 `json:"elephant_fraction,omitempty"`
	// RatBatch and ElephantBatch are packets per emitted batch.
	RatBatch      int `json:"rat_batch,omitempty"`
	ElephantBatch int `json:"elephant_batch,omitempty"`
	// RatTrain and ElephantTrain are packets per flow lifetime.
	RatTrain      int `json:"rat_train,omitempty"`
	ElephantTrain int `json:"elephant_train,omitempty"`
}

func (f FlowSpec) validate(hasFSweep bool) error {
	if f.Flows <= 0 && !hasFSweep {
		return fmt.Errorf("scenario: flow workload needs flows > 0 (or an fsweep load)")
	}
	if f.Flows < 0 {
		return fmt.Errorf("scenario: negative flow population %d", f.Flows)
	}
	if f.ElephantFraction < 0 || f.ElephantFraction > 1 {
		return fmt.Errorf("scenario: elephant_fraction %g outside [0, 1]", f.ElephantFraction)
	}
	if f.RatBatch < 0 || f.ElephantBatch < 0 || f.RatTrain < 0 || f.ElephantTrain < 0 {
		return fmt.Errorf("scenario: negative flow batch/train sizes")
	}
	return nil
}

// TenantSpec is one co-located application class (§2.2: "multiple
// co-located applications from different latency classes"): its own
// open-loop request stream against the shared server.
type TenantSpec struct {
	// Name labels the tenant in reports.
	Name string `json:"name"`
	// RPS is the tenant's offered load.
	RPS float64 `json:"rps"`
	// Workload is the tenant's service-time distribution.
	Workload string `json:"workload"`
	// Class is the tenant's priority class (0 = highest).
	Class int `json:"class,omitempty"`
}

// LoadSpec declares how a scenario is loaded. Exactly one of RPS, Rho
// or Grid applies; KSweep additionally requires RPS (the saturating
// load the k sweep runs at).
type LoadSpec struct {
	// RPS is a single offered load.
	RPS float64 `json:"rps,omitempty"`
	// Rho derives a single offered load from a target utilization:
	// rho · workers / mean service time.
	Rho float64 `json:"rho,omitempty"`
	// Grid sweeps offered load across an arithmetic grid.
	Grid *Grid `json:"grid,omitempty"`
	// KSweep sweeps the outstanding limit at the fixed RPS.
	KSweep *KSweep `json:"ksweep,omitempty"`
	// FSweep sweeps the concurrent-flow population at the fixed RPS
	// (flow-keyed workloads only).
	FSweep *FSweep `json:"fsweep,omitempty"`
}

// QualitySpec optionally pins sample counts inside a spec; most specs
// leave it nil and take the run-time quality (quick/full) instead.
type QualitySpec struct {
	// Preset names a standard quality: "quick" or "full".
	Preset string `json:"preset,omitempty"`
	// Warmup completions are discarded; Measure completions recorded.
	// Either overrides the preset when non-zero.
	Warmup  int `json:"warmup,omitempty"`
	Measure int `json:"measure,omitempty"`
}

// Spec is the serializable description of one simulated scenario: which
// system to build (by registry name), how it is configured, what drives
// it, and how it is measured. Specs are plain data — they JSON-encode
// canonically, round-trip exactly, and fingerprint stably — so every
// layer (experiment presets, CLIs, examples, the result cache) can
// share one description of a system under test.
type Spec struct {
	// Name optionally labels the spec (presets use the series label).
	Name string `json:"name,omitempty"`
	// System is the registry name: offload, shinjuku, rss, zygos,
	// flowdir, rpcvalet, erss, or idealnic.
	System string `json:"system"`
	// Knobs configures the system; which knobs apply depends on System.
	Knobs *Knobs `json:"knobs,omitempty"`
	// Workload is the service-time distribution in the dist
	// mini-language (e.g. "bimodal:0.995:5µs:100µs").
	Workload string `json:"workload,omitempty"`
	// Keys optionally samples per-request application keys.
	Keys *KeysSpec `json:"keys,omitempty"`
	// Flow keys the workload by flow identity: population, elephant/rat
	// mix, batch and train sizes. Only systems whose builders declare
	// FlowWorkload accept it — and they require it. Absent (nil), the
	// field is omitted from the canonical encoding, so pre-flow specs
	// keep their fingerprints.
	Flow *FlowSpec `json:"flow,omitempty"`
	// Tenants drives the system with one open-loop stream per co-located
	// tenant instead of the single Workload at Load: the block is both
	// the workload and the load, so it excludes Workload, Flow and Load.
	// Requests carry their tenant's index as ClientID; on a system with
	// a class-aware central queue the tenants' classes become its strict
	// priority classes. Absent (nil), the field is omitted from the
	// canonical encoding, so single-stream specs keep their fingerprints.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// Load declares the offered load (single point, utilization-derived
	// point, load grid, k sweep, or flow-population sweep).
	Load *LoadSpec `json:"load,omitempty"`
	// Quality optionally pins sample counts.
	Quality *QualitySpec `json:"quality,omitempty"`
	// Seed fixes the workload streams (0 = take the run-time default).
	Seed uint64 `json:"seed,omitempty"`
	// Attribution asks the run to attach a latency-attribution collector:
	// per-request phase decomposition (ingress / nic-queue / fabric /
	// host-queue / service / preemption overhead) plus a ground-truth
	// audit of every dispatch decision. Every system feeds one. Absent
	// (false), the field is omitted from the canonical encoding, so
	// pre-attribution specs keep their fingerprints.
	Attribution bool `json:"attribution,omitempty"`
	// Faults optionally attaches a deterministic fault schedule (NIC
	// ARM-core crash/slowdown windows, fabric loss/latency bursts, host
	// worker stalls) plus the timeout/retry/degradation policy. Only
	// systems whose builders declare Faultable accept it, and a faulted
	// spec must pin its Seed: the fault timeline is part of the scenario's
	// identity, never a run-time default. Absent (nil), the field is
	// omitted from the canonical encoding, so pre-fault specs keep their
	// fingerprints.
	Faults *faults.Spec `json:"faults,omitempty"`
}

// KnobsOrZero returns the knob set, zero-valued when unset.
func (s Spec) KnobsOrZero() Knobs {
	if s.Knobs == nil {
		return Knobs{}
	}
	return *s.Knobs
}

// WithOutstanding returns a copy of the spec with the outstanding-limit
// knob replaced (the k-sweep axis).
func (s Spec) WithOutstanding(k int) Spec {
	kn := s.KnobsOrZero()
	kn.Outstanding = k
	s.Knobs = &kn
	return s
}

// WithSlice returns a copy of the spec with the preemption quantum
// replaced (the preemption on/off axis of the dispersion table).
func (s Spec) WithSlice(d time.Duration) Spec {
	kn := s.KnobsOrZero()
	kn.Slice = Duration(d)
	s.Knobs = &kn
	return s
}

// WithFlows returns a copy of the spec with the concurrent-flow
// population replaced (the fsweep axis).
func (s Spec) WithFlows(n int) Spec {
	var fl FlowSpec
	if s.Flow != nil {
		fl = *s.Flow
	}
	fl.Flows = n
	s.Flow = &fl
	return s
}

// WithFlatTenants returns a copy of the spec with every tenant in class
// 0 — the same mix on one shared FIFO, the baseline of the tenants
// table. The receiver's tenant list is left untouched.
func (s Spec) WithFlatTenants() Spec {
	flat := make([]TenantSpec, len(s.Tenants))
	for i, t := range s.Tenants {
		t.Class = 0
		flat[i] = t
	}
	s.Tenants = flat
	return s
}

// Encode renders the spec in the canonical on-disk form: two-space
// indented JSON with a trailing newline. Decode(Encode(s)) is the
// identity; the scenarios package's golden tests enforce it for every
// checked-in preset.
func (s Spec) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses a spec, rejecting unknown fields so a misspelled knob
// cannot silently vanish.
func Decode(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode spec: %w", err)
	}
	return s, nil
}

// Fingerprint returns the canonical identity of the spec: a SHA-256
// over the schema version and the compact canonical encoding. Two specs
// fingerprint equal iff they describe the same scenario, which makes
// the fingerprint the natural result-cache key component.
func (s Spec) Fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail. Guard anyway:
		// a constant fingerprint merely widens cache collisions, it never
		// corrupts results.
		return "spec-unknown"
	}
	h := sha256.New()
	h.Write([]byte(SchemaVersion))
	h.Write([]byte{0})
	h.Write(b)
	return "spec-" + hex.EncodeToString(h.Sum(nil)[:12])
}

// Validate checks everything that can be checked without building: the
// system is registered, only knobs that system accepts are set, the
// workload parses, and the load declaration is coherent.
func (s Spec) Validate() error {
	if _, err := s.builder(); err != nil {
		return err
	}
	if s.Workload != "" {
		if _, err := dist.Parse(s.Workload); err != nil {
			return fmt.Errorf("scenario: spec %q: %w", s.System, err)
		}
	}
	if s.Keys != nil && (s.Keys.N <= 0 || s.Keys.Skew < 0) {
		return fmt.Errorf("scenario: keys need n > 0 and skew >= 0 (got n=%d skew=%g)", s.Keys.N, s.Keys.Skew)
	}
	if s.Load != nil {
		return s.Load.validate()
	}
	return nil
}

// builder resolves the spec's registered system and applies the gates
// Validate and BuildWith share: only knobs that system accepts, the
// flow-workload contract, the tenants contract, and the fault-schedule
// contract.
func (s Spec) builder() (Builder, error) {
	b, ok := Lookup(s.System)
	if !ok {
		return b, unknownSystemError(s.System)
	}
	if err := b.checkKnobs(s.KnobsOrZero()); err != nil {
		return b, err
	}
	if err := s.checkFlow(b); err != nil {
		return b, err
	}
	if err := s.checkTenants(b); err != nil {
		return b, err
	}
	if s.Faults == nil {
		return b, nil
	}
	if s.Faults.Empty() {
		return b, fmt.Errorf("scenario: %s: faults block present but empty — drop it for a healthy system", s.System)
	}
	if !b.Faultable {
		return b, fmt.Errorf("scenario: system %q cannot degrade and rejects fault schedules", s.System)
	}
	if err := s.Faults.Validate(); err != nil {
		return b, fmt.Errorf("scenario: %s: %w", s.System, err)
	}
	if s.Seed == 0 {
		return b, fmt.Errorf("scenario: %s: faulted specs must pin a nonzero seed — the fault timeline is part of the scenario identity", s.System)
	}
	return b, nil
}

// checkFlow gates the flow-workload block: flow-keyed systems require
// it, classic i.i.d. systems reject it — a spec can't quietly run a
// rule-table system on a flowless stream or vice versa.
func (s Spec) checkFlow(b Builder) error {
	hasFSweep := s.Load != nil && s.Load.FSweep != nil
	if hasFSweep && !b.FlowWorkload {
		return fmt.Errorf("scenario: fsweep needs a flow-keyed system, and %q is not one", s.System)
	}
	if s.Flow != nil && !b.FlowWorkload {
		return fmt.Errorf("scenario: system %q takes an i.i.d. request stream and rejects a flow workload block", s.System)
	}
	if s.Flow == nil && b.FlowWorkload {
		return fmt.Errorf("scenario: system %q keys on flow identity and needs a flow workload block", s.System)
	}
	if s.Flow != nil {
		return s.Flow.validate(hasFSweep)
	}
	return nil
}

// checkTenants gates the tenants block. It is the workload and the load,
// so the fields that otherwise declare them must be unset; every tenant
// needs a name, a rate and a workload that parses; classes are dense
// ranks, and one above 0 needs a system whose central queue is
// class-aware — elsewhere it would silently run as one FIFO.
func (s Spec) checkTenants(b Builder) error {
	if len(s.Tenants) == 0 {
		return nil
	}
	if s.Workload != "" || s.Load != nil || s.Flow != nil {
		return fmt.Errorf("scenario: %s: tenants carry their own workloads and rates; drop workload, load and flow", s.System)
	}
	for _, t := range s.Tenants {
		if t.Name == "" || t.RPS <= 0 {
			return fmt.Errorf("scenario: %s: tenant needs a name and rps > 0", s.System)
		}
		if _, err := dist.Parse(t.Workload); err != nil {
			return fmt.Errorf("scenario: %s: tenant %q: %w", s.System, t.Name, err)
		}
		if t.Class < 0 || t.Class >= len(s.Tenants) {
			return fmt.Errorf("scenario: %s: tenant %q: class %d outside [0, %d)", s.System, t.Name, t.Class, len(s.Tenants))
		}
		if t.Class > 0 && !b.PriorityClasses {
			return fmt.Errorf("scenario: system %q has no class-aware queue and rejects tenant %q's class %d", s.System, t.Name, t.Class)
		}
	}
	return nil
}

func (l LoadSpec) validate() error {
	modes := 0
	if l.RPS < 0 || l.Rho < 0 {
		return fmt.Errorf("scenario: negative load (rps=%g rho=%g)", l.RPS, l.Rho)
	}
	if l.RPS > 0 {
		modes++
	}
	if l.Rho > 0 {
		modes++
	}
	if l.Grid != nil {
		modes++
		if l.Grid.Step <= 0 || l.Grid.Hi < l.Grid.Lo || l.Grid.Lo <= 0 {
			return fmt.Errorf("scenario: bad load grid lo=%g hi=%g step=%g", l.Grid.Lo, l.Grid.Hi, l.Grid.Step)
		}
	}
	if l.KSweep != nil && l.FSweep != nil {
		return fmt.Errorf("scenario: ksweep and fsweep are exclusive")
	}
	if l.KSweep != nil {
		if l.KSweep.Lo < 1 || l.KSweep.Hi < l.KSweep.Lo {
			return fmt.Errorf("scenario: bad ksweep lo=%d hi=%d", l.KSweep.Lo, l.KSweep.Hi)
		}
		if l.RPS <= 0 {
			return fmt.Errorf("scenario: ksweep needs a fixed rps load")
		}
		if l.Grid != nil || l.Rho > 0 {
			return fmt.Errorf("scenario: ksweep combines only with rps")
		}
		return nil
	}
	if l.FSweep != nil {
		if len(l.FSweep.Points()) == 0 {
			return fmt.Errorf("scenario: bad fsweep lo=%d hi=%d mul=%d (need lo>=1, mul>=2, hi>=lo)",
				l.FSweep.Lo, l.FSweep.Hi, l.FSweep.Mul)
		}
		if l.RPS <= 0 {
			return fmt.Errorf("scenario: fsweep needs a fixed rps load")
		}
		if l.Grid != nil || l.Rho > 0 {
			return fmt.Errorf("scenario: fsweep combines only with rps")
		}
		return nil
	}
	if modes != 1 {
		return fmt.Errorf("scenario: load needs exactly one of rps, rho, or grid")
	}
	return nil
}
