package hypothesis

import (
	"bytes"
	"strings"
	"testing"

	"mindgap/internal/scenario"
)

// base returns a valid dominance hypothesis: work stealing (zygos) vs
// blind RSS on the same exponential workload.
func base() Spec {
	return Spec{
		ID:         "test-stealing",
		Claim:      "zygos beats rss on p99",
		Metric:     "p99",
		Seeds:      []uint64{7, 11},
		Controlled: []string{"workload", "workers", "load"},
		Varied:     []string{"system"},
		A: Arm{Label: "zygos", Scenario: scenario.Spec{
			System:   "zygos",
			Knobs:    &scenario.Knobs{Workers: 4},
			Workload: "exp:50µs",
			Load:     &scenario.LoadSpec{RPS: 48000},
		}},
		B: Arm{Label: "rss", Scenario: scenario.Spec{
			System:   "rss",
			Knobs:    &scenario.Knobs{Workers: 4},
			Workload: "exp:50µs",
			Load:     &scenario.LoadSpec{RPS: 48000},
		}},
		Criterion: CriterionSpec{Kind: Dominance, MinMargin: 0.1},
	}
}

func wantErr(t *testing.T, s Spec, frag string) {
	t.Helper()
	err := s.Validate()
	if err == nil {
		t.Fatalf("expected validation error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec must validate: %v", err)
	}
}

func TestValidateIdentity(t *testing.T) {
	s := base()
	s.ID = "Bad_ID"
	wantErr(t, s, "kebab-case")
	s = base()
	s.Claim = "  "
	wantErr(t, s, "claim")
}

func TestValidateMetric(t *testing.T) {
	s := base()
	s.Metric = "p42"
	wantErr(t, s, "unknown metric")
}

func TestValidateSeeds(t *testing.T) {
	s := base()
	s.Seeds = nil
	wantErr(t, s, "at least one pinned seed")
	s = base()
	s.Seeds = []uint64{7, 0}
	wantErr(t, s, "seed 0")
	s = base()
	s.Seeds = []uint64{7, 7}
	wantErr(t, s, "duplicate seed")
}

func TestValidateArmPins(t *testing.T) {
	s := base()
	s.A.Scenario.Seed = 3
	wantErr(t, s, "must not pin seeds")
	s = base()
	s.A.Scenario.Quality = &scenario.QualitySpec{Warmup: 10}
	wantErr(t, s, "must not pin quality")
	s = base()
	s.B.Label = ""
	wantErr(t, s, "needs a label")
	s = base()
	s.A.Scenario.Load = nil
	wantErr(t, s, "needs a load")
}

func TestValidateLoadShapes(t *testing.T) {
	// Dominance rejects grids.
	s := base()
	s.A.Scenario.Load = &scenario.LoadSpec{Grid: &scenario.Grid{Lo: 1000, Hi: 2000, Step: 500}}
	s.Varied = []string{"system", "load"}
	s.Controlled = []string{"workload", "workers"}
	wantErr(t, s, "single-point loads")

	// Crossover requires identical grids on both arms.
	s = base()
	s.Criterion = CriterionSpec{Kind: Crossover, Bracket: &Bracket{Lo: 1000, Hi: 2000}}
	s.A.Scenario.Load = &scenario.LoadSpec{Grid: &scenario.Grid{Lo: 1000, Hi: 3000, Step: 1000}}
	s.B.Scenario.Load = &scenario.LoadSpec{Grid: &scenario.Grid{Lo: 1000, Hi: 2000, Step: 500}}
	s.Varied = []string{"system", "load"}
	s.Controlled = []string{"workload", "workers"}
	wantErr(t, s, "share one load grid")
	s.B.Scenario.Load = &scenario.LoadSpec{Grid: &scenario.Grid{Lo: 1000, Hi: 3000, Step: 1000}}
	s.Varied = []string{"system"}
	if err := s.Validate(); err != nil {
		t.Fatalf("matched grids must validate: %v", err)
	}
}

func TestValidateCriterionParams(t *testing.T) {
	s := base()
	s.Criterion = CriterionSpec{Kind: "majority"}
	wantErr(t, s, "unknown criterion")
	s = base()
	s.Criterion = CriterionSpec{Kind: Dominance, MinMargin: 1.5}
	wantErr(t, s, "min_margin")
	s = base()
	s.Criterion = CriterionSpec{Kind: Dominance, Tolerance: 0.1}
	wantErr(t, s, "min_margin/min_win_frac only")
	s = base()
	s.Criterion = CriterionSpec{Kind: Equivalence}
	wantErr(t, s, "tolerance")
	s = base()
	s.Criterion = CriterionSpec{Kind: Crossover}
	wantErr(t, s, "bracket")
	s = base()
	s.Criterion = CriterionSpec{Kind: Crossover, Bracket: &Bracket{Lo: 2000, Hi: 1000}}
	wantErr(t, s, "bad bracket")
}

func TestValidateDiffContract(t *testing.T) {
	// An undeclared difference is a confounded comparison.
	s := base()
	s.A.Scenario.Keys = &scenario.KeysSpec{N: 64, Skew: 1.2}
	wantErr(t, s, "undeclared dimensions [keys]")

	// Arms of one system that differ only in a model constant are
	// confounded unless the calibration is the declared variable.
	s = base()
	s.B.Scenario.System = "zygos"
	s.Varied = nil
	s.A.Scenario.Calibration = map[string]scenario.Duration{"StealCost": 0}
	wantErr(t, s, "undeclared dimensions [calibration]")
	s.Varied = []string{"calibration"}
	if err := s.Validate(); err != nil {
		t.Errorf("declared calibration arms: %v", err)
	}

	// Declared varied but identical.
	s = base()
	s.Varied = []string{"system", "workers"}
	wantErr(t, s, "identical in both arms")

	// Controlled but differing.
	s = base()
	s.A.Scenario.Knobs.Workers = 8
	s.Varied = []string{"system", "workers"}
	s.Controlled = []string{"workload", "workers"}
	wantErr(t, s, "cannot be both controlled and varied")
	s.Varied = []string{"system"}
	s.Controlled = []string{"workers"}
	wantErr(t, s, "declared controlled but differs")

	// Unknown dimension names.
	s = base()
	s.Varied = []string{"system", "frobnication"}
	wantErr(t, s, "unknown dimension")
	s = base()
	s.Controlled = []string{"frobnication"}
	wantErr(t, s, "unknown dimension")

	// Controlled but set in neither arm.
	s = base()
	s.Controlled = []string{"slice"}
	wantErr(t, s, "set in neither arm")
}

func TestValidateScenarioErrorsSurface(t *testing.T) {
	// A knob the system rejects fails through the scenario validator.
	s := base()
	s.A.Scenario.Knobs.OffloadThreshold = 4
	s.Varied = []string{"system", "offload_threshold"}
	if err := s.Validate(); err == nil {
		t.Fatal("zygos must reject flowrule knobs")
	}
}

func TestValidateAnalytic(t *testing.T) {
	good := func() Spec {
		s := base()
		s.Analytic = &AnalyticSpec{Model: "mm1-percore", Arm: "b", Metric: "mean", Tolerance: 0.25}
		return s
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("twin must validate: %v", err)
	}
	s := good()
	s.Analytic.Arm = "c"
	wantErr(t, s, `"a" or "b"`)
	s = good()
	s.Analytic.Model = "md1"
	wantErr(t, s, "unknown analytic model")
	s = good()
	s.Analytic.Metric = "max"
	wantErr(t, s, "mean or p99")
	s = good()
	s.Analytic.Model = "mmc"
	s.Analytic.Metric = "p99"
	wantErr(t, s, "closed form for the mean")
	s = good()
	s.Analytic.Tolerance = 0
	wantErr(t, s, "tolerance")
	s = good()
	s.B.Scenario.Workload = "fixed:50µs"
	s.A.Scenario.Workload = "fixed:50µs"
	wantErr(t, s, "exponential service")
	s = good()
	s.Analytic.Servers = 0
	s.B.Scenario.Knobs.Workers = 0
	s.A.Scenario.Knobs.Workers = 0
	s.Controlled = []string{"workload", "load"}
	wantErr(t, s, "needs workers >= 1") // the arm refuses before the twin asks for servers
	// Crossover hypotheses cannot carry a twin.
	s = good()
	s.Criterion = CriterionSpec{Kind: Crossover, Bracket: &Bracket{Lo: 1, Hi: 2}}
	g := &scenario.Grid{Lo: 1000, Hi: 2000, Step: 500}
	s.A.Scenario.Load = &scenario.LoadSpec{Grid: g}
	s.B.Scenario.Load = &scenario.LoadSpec{Grid: g}
	wantErr(t, s, "single load point")
}

func TestCanonicalRoundTrip(t *testing.T) {
	s := base()
	enc1, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Decode(enc1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", enc1, enc2)
	}
	if s.Fingerprint() != s2.Fingerprint() {
		t.Fatal("fingerprint must survive an encode/decode round trip")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	for _, bad := range []string{
		`{"id":"x","clame":"typo"}`,
		`{"id":"x","claim":"c","a":{"label":"l","scenario":{"system":"rss","knbs":{}}}}`,
		`{"id":"x","claim":"c","criterion":{"kind":"dominance","margin":0.1}}`,
	} {
		if _, err := Decode([]byte(bad)); err == nil {
			t.Fatalf("unknown field must be rejected: %s", bad)
		}
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := base()
	b := base()
	b.Criterion.MinMargin = 0.11
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different criteria must fingerprint differently")
	}
}
