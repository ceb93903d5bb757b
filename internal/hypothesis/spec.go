// Package hypothesis states the repository's headline comparisons as
// machine-checked claims: a declarative A/B spec naming two scenario
// arms, the knobs that are controlled vs varied between them, a pinned
// seed list, one metric, and a statistical criterion (dominance with a
// required margin, equivalence within a tolerance, or a crossover-point
// bracket). Hypotheses execute through internal/runner's cached pool —
// every (arm, seed, load) point is an ordinary experiment point with a
// fingerprint-derived cache key — and render as deterministic FINDINGS
// reports, so a regression that flips a paper conclusion fails a test
// instead of silently re-drawing a figure. A hypothesis may additionally
// declare an analytic twin: a closed-form queueing model
// (internal/analytic) that must agree with one simulated arm within a
// documented tolerance before any A/B verdict is trusted.
package hypothesis

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"

	"mindgap/internal/scenario"
)

// SchemaVersion is baked into every hypothesis fingerprint. Bump it
// whenever the spec schema changes meaning, so cached FINDINGS keyed by
// older fingerprints are never trusted.
const SchemaVersion = "mindgap-hypothesis/1"

// Criterion kinds.
const (
	// Dominance claims arm A beats arm B on the metric: A must win on at
	// least MinWinFrac of the seeds and by at least MinMargin mean
	// relative margin.
	Dominance = "dominance"
	// Equivalence claims the arms are interchangeable on the metric: the
	// per-seed symmetric relative gap must stay within Tolerance.
	Equivalence = "equivalence"
	// Crossover claims B wins at the low end of a shared load grid, A
	// wins at the high end, and the single sign flip falls inside
	// Bracket.
	Crossover = "crossover"
)

// Arm is one side of the comparison: a label and an inline scenario.
// The scenario must leave Seed and Quality unset — the hypothesis
// pins those for both arms, so the only differences between A and B are
// the ones the varied list declares.
type Arm struct {
	// Label names the arm in FINDINGS tables.
	Label string `json:"label"`
	// Scenario is the system under test, in the scenario-spec schema.
	Scenario scenario.Spec `json:"scenario"`
}

// Bracket is an inclusive load interval in which a crossover must fall.
type Bracket struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// CriterionSpec selects and parameterizes the statistical test.
type CriterionSpec struct {
	// Kind is dominance, equivalence, or crossover.
	Kind string `json:"kind"`
	// MinMargin is the required cross-seed mean relative margin in favor
	// of A (dominance only; 0 requires any positive margin).
	MinMargin float64 `json:"min_margin,omitempty"`
	// MinWinFrac is the fraction of seeds A must win outright (dominance
	// only; 0 means every seed). Ties never count as wins.
	MinWinFrac float64 `json:"min_win_frac,omitempty"`
	// Tolerance bounds the per-seed symmetric relative gap (equivalence
	// only).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Bracket is the load interval the sign flip must fall in (crossover
	// only).
	Bracket *Bracket `json:"bracket,omitempty"`
}

// AnalyticSpec declares a closed-form twin: before the A/B verdict is
// rendered, the named arm's cross-seed mean of Metric must agree with
// the queueing model within Tolerance. A twin that disagrees fails the
// hypothesis regardless of the A/B outcome — the simulation and the
// theory it was validated against have diverged.
type AnalyticSpec struct {
	// Model is the closed form: "mm1-percore" (hash-partitioned cores,
	// each an independent M/M/1 at λ/c) or "mmc" (a single shared queue
	// with c servers).
	Model string `json:"model"`
	// Arm names the side the model describes: "a" or "b".
	Arm string `json:"arm"`
	// Servers overrides the server count c; 0 takes the arm's workers
	// knob.
	Servers int `json:"servers,omitempty"`
	// Metric is the compared moment: "mean" (both models) or "p99"
	// (mm1-percore only — the M/M/c response tail has no simple closed
	// form).
	Metric string `json:"metric"`
	// Tolerance is the allowed relative error |sim−model|/model. The
	// value is part of the claim: it documents how closely the simulated
	// system, with its calibrated overheads, is expected to track the
	// overhead-free closed form.
	Tolerance float64 `json:"tolerance"`
}

// Spec is the serializable statement of one hypothesis.
type Spec struct {
	// ID names the hypothesis (kebab-case; doubles as its directory name
	// in the hypotheses/ corpus).
	ID string `json:"id"`
	// Title is the one-line human heading of the FINDINGS report.
	Title string `json:"title,omitempty"`
	// Claim is the falsifiable sentence being tested.
	Claim string `json:"claim"`
	// Metric is what is measured per (arm, seed, load) point: p50, p99,
	// mean, max, goodput, drop_rate, or mis_dispatch.
	Metric string `json:"metric"`
	// Seeds is the pinned replication list; every arm runs every seed.
	Seeds []uint64 `json:"seeds"`
	// Quality optionally pins sample counts for both arms (preset name
	// or explicit warmup/measure); unset takes the run-time quality.
	Quality *scenario.QualitySpec `json:"quality,omitempty"`
	// Controlled lists the dimensions (knob JSON names, or "system",
	// "workload", "flow", "faults") that are asserted equal across arms.
	Controlled []string `json:"controlled,omitempty"`
	// Varied lists the dimensions that are allowed — and required — to
	// differ between arms. Any dimension that differs but is not listed
	// here fails validation: the comparison would be confounded.
	Varied []string `json:"varied"`
	// A and B are the two arms. Direction matters: the criterion speaks
	// about A (dominance: A wins; crossover: A wins above the flip).
	A Arm `json:"a"`
	B Arm `json:"b"`
	// Criterion is the statistical test.
	Criterion CriterionSpec `json:"criterion"`
	// Analytic optionally declares the closed-form twin.
	Analytic *AnalyticSpec `json:"analytic,omitempty"`
}

// Encode renders the spec in the canonical on-disk form: two-space
// indented JSON with a trailing newline, mirroring scenario specs.
func (s Spec) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses a hypothesis, rejecting unknown fields at every level
// (including inside the embedded scenario specs), so a misspelled knob
// or criterion parameter cannot silently weaken a claim.
func Decode(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("hypothesis: decode spec: %w", err)
	}
	return s, nil
}

// Fingerprint returns the canonical identity of the hypothesis: a
// SHA-256 over the schema version and the compact encoding. It names
// the claim, not its outcome — FINDINGS reports embed it so a report
// can be matched to the exact spec that produced it.
func (s Spec) Fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail. A constant fallback
		// merely widens collisions, it never corrupts results.
		return "hyp-unknown"
	}
	h := sha256.New()
	h.Write([]byte(SchemaVersion))
	h.Write([]byte{0})
	h.Write(b)
	return "hyp-" + hex.EncodeToString(h.Sum(nil)[:12])
}

var idPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Validate checks everything that can be checked without running: the
// metric and criterion are coherent, the seed list is usable, both arms
// validate as scenarios under the pinned seeds, the load shapes match
// the criterion, every difference between the arms is declared in
// Varied, and the analytic twin (if any) is applicable.
func (s Spec) Validate() error {
	if !idPattern.MatchString(s.ID) {
		return fmt.Errorf("hypothesis: id %q must be non-empty kebab-case", s.ID)
	}
	if strings.TrimSpace(s.Claim) == "" {
		return fmt.Errorf("hypothesis %s: a hypothesis needs a claim", s.ID)
	}
	if _, ok := metrics[s.Metric]; !ok {
		return fmt.Errorf("hypothesis %s: unknown metric %q (want one of %s)", s.ID, s.Metric, metricNames())
	}
	if err := s.validateSeeds(); err != nil {
		return err
	}
	if err := s.validateArms(); err != nil {
		return err
	}
	if err := s.validateDiff(); err != nil {
		return err
	}
	if err := s.validateCriterion(); err != nil {
		return err
	}
	return s.validateAnalytic()
}

func (s Spec) validateSeeds() error {
	if len(s.Seeds) == 0 {
		return fmt.Errorf("hypothesis %s: need at least one pinned seed", s.ID)
	}
	seen := make(map[uint64]bool, len(s.Seeds))
	for _, sd := range s.Seeds {
		if sd == 0 {
			return fmt.Errorf("hypothesis %s: seed 0 is the run-time default, pin real seeds", s.ID)
		}
		if seen[sd] {
			return fmt.Errorf("hypothesis %s: duplicate seed %d", s.ID, sd)
		}
		seen[sd] = true
	}
	return nil
}

func (s Spec) validateArms() error {
	for _, side := range []struct {
		name string
		arm  Arm
	}{{"a", s.A}, {"b", s.B}} {
		if strings.TrimSpace(side.arm.Label) == "" {
			return fmt.Errorf("hypothesis %s: arm %s needs a label", s.ID, side.name)
		}
		sp := side.arm.Scenario
		if sp.Seed != 0 {
			return fmt.Errorf("hypothesis %s: arm %s must not pin seeds — the hypothesis seed list drives both arms", s.ID, side.name)
		}
		if sp.Quality != nil {
			return fmt.Errorf("hypothesis %s: arm %s must not pin quality — set it on the hypothesis", s.ID, side.name)
		}
		if sp.Load == nil {
			return fmt.Errorf("hypothesis %s: arm %s needs a load", s.ID, side.name)
		}
		if sp.Load.KSweep != nil || sp.Load.FSweep != nil {
			return fmt.Errorf("hypothesis %s: arm %s: hypotheses compare fixed scenarios, not k/flow sweeps", s.ID, side.name)
		}
		// Arms are validated exactly as the executor runs them: each
		// pinned seed substituted (faulted arms require a nonzero seed).
		for _, sd := range s.Seeds {
			sp.Seed = sd
			if err := sp.Validate(); err != nil {
				return fmt.Errorf("hypothesis %s: arm %s: %w", s.ID, side.name, err)
			}
		}
	}
	return nil
}

// validateCriterion checks the test parameters and the load shapes they
// require: dominance and equivalence compare single load points,
// crossover compares identical load grids.
func (s Spec) validateCriterion() error {
	c := s.Criterion
	singlePoint := func() error {
		for _, side := range []struct {
			name string
			arm  Arm
		}{{"a", s.A}, {"b", s.B}} {
			if side.arm.Scenario.Load.Grid != nil {
				return fmt.Errorf("hypothesis %s: %s criterion needs single-point loads, arm %s has a grid", s.ID, c.Kind, side.name)
			}
		}
		return nil
	}
	switch c.Kind {
	case Dominance:
		if c.MinMargin < 0 || c.MinMargin >= 1 {
			return fmt.Errorf("hypothesis %s: min_margin %g outside [0,1)", s.ID, c.MinMargin)
		}
		if c.MinWinFrac < 0 || c.MinWinFrac > 1 {
			return fmt.Errorf("hypothesis %s: min_win_frac %g outside [0,1]", s.ID, c.MinWinFrac)
		}
		if c.Tolerance != 0 || c.Bracket != nil { //lint:allow floateq exact zero means "field unset", not a computed value
			return fmt.Errorf("hypothesis %s: dominance takes min_margin/min_win_frac only", s.ID)
		}
		return singlePoint()
	case Equivalence:
		if c.Tolerance <= 0 || c.Tolerance >= 2 {
			return fmt.Errorf("hypothesis %s: equivalence tolerance %g outside (0,2)", s.ID, c.Tolerance)
		}
		if c.MinMargin != 0 || c.MinWinFrac != 0 || c.Bracket != nil { //lint:allow floateq exact zero means "field unset", not a computed value
			return fmt.Errorf("hypothesis %s: equivalence takes a tolerance only", s.ID)
		}
		return singlePoint()
	case Crossover:
		if c.Bracket == nil {
			return fmt.Errorf("hypothesis %s: crossover needs a bracket", s.ID)
		}
		if c.Bracket.Lo <= 0 || c.Bracket.Hi <= c.Bracket.Lo {
			return fmt.Errorf("hypothesis %s: bad bracket lo=%g hi=%g", s.ID, c.Bracket.Lo, c.Bracket.Hi)
		}
		if c.MinMargin != 0 || c.MinWinFrac != 0 || c.Tolerance != 0 { //lint:allow floateq exact zero means "field unset", not a computed value
			return fmt.Errorf("hypothesis %s: crossover takes a bracket only", s.ID)
		}
		ga, gb := s.A.Scenario.Load.Grid, s.B.Scenario.Load.Grid
		if ga == nil || gb == nil {
			return fmt.Errorf("hypothesis %s: crossover needs a load grid on both arms", s.ID)
		}
		if *ga != *gb {
			return fmt.Errorf("hypothesis %s: crossover arms must share one load grid (a: %+v, b: %+v)", s.ID, *ga, *gb)
		}
		return nil
	default:
		return fmt.Errorf("hypothesis %s: unknown criterion kind %q", s.ID, c.Kind)
	}
}

func (s Spec) validateAnalytic() error {
	a := s.Analytic
	if a == nil {
		return nil
	}
	if s.Criterion.Kind == Crossover {
		return fmt.Errorf("hypothesis %s: analytic twins describe a single load point, not a crossover grid", s.ID)
	}
	var arm Arm
	switch a.Arm {
	case "a":
		arm = s.A
	case "b":
		arm = s.B
	default:
		return fmt.Errorf("hypothesis %s: analytic arm must be \"a\" or \"b\", got %q", s.ID, a.Arm)
	}
	switch a.Model {
	case "mm1-percore":
		if a.Metric != "mean" && a.Metric != "p99" {
			return fmt.Errorf("hypothesis %s: mm1-percore twin metric must be mean or p99, got %q", s.ID, a.Metric)
		}
	case "mmc":
		if a.Metric != "mean" {
			return fmt.Errorf("hypothesis %s: mmc twin only has a closed form for the mean, got %q", s.ID, a.Metric)
		}
	default:
		return fmt.Errorf("hypothesis %s: unknown analytic model %q", s.ID, a.Model)
	}
	if a.Tolerance <= 0 || a.Tolerance >= 1 {
		return fmt.Errorf("hypothesis %s: analytic tolerance %g outside (0,1)", s.ID, a.Tolerance)
	}
	if !strings.HasPrefix(arm.Scenario.Workload, "exp:") {
		return fmt.Errorf("hypothesis %s: M/M models assume exponential service, arm %s runs %q", s.ID, a.Arm, arm.Scenario.Workload)
	}
	return nil
}

// servers resolves the twin's server count: the explicit override, else
// the arm's workers knob.
func (a AnalyticSpec) servers(arm Arm) int {
	if a.Servers > 0 {
		return a.Servers
	}
	return arm.Scenario.KnobsOrZero().Workers
}
