package scenario

import (
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"mindgap/internal/params"
)

// TestGridPointsExact pins the integer-index grid generation: every point
// is exactly lo + i·step, even on long grids where accumulating x += step
// would drift.
func TestGridPointsExact(t *testing.T) {
	cases := []struct {
		g    Grid
		want []float64
	}{
		{Grid{Lo: 50_000, Hi: 650_000, Step: 50_000},
			[]float64{50_000, 100_000, 150_000, 200_000, 250_000, 300_000, 350_000,
				400_000, 450_000, 500_000, 550_000, 600_000, 650_000}},
		{Grid{Lo: 1, Hi: 1, Step: 1}, []float64{1}},
		{Grid{Lo: 0, Hi: 1, Step: 0}, nil},
		{Grid{Lo: 2, Hi: 1, Step: 1}, nil},
	}
	for _, c := range cases {
		if got := c.g.Points(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Grid%+v.Points() = %v, want %v", c.g, got, c.want)
		}
	}

	// The drift case: 10001 points at step 0.1. Accumulation would be off
	// by many ULPs at the tail; index generation must match lo + i*step
	// bit for bit.
	long := Grid{Lo: 0.1, Hi: 1000.1, Step: 0.1}
	pts := long.Points()
	if len(pts) != 10001 {
		t.Fatalf("long grid: got %d points, want 10001", len(pts))
	}
	for i, x := range pts {
		if want := long.Lo + float64(i)*long.Step; x != want {
			t.Fatalf("long grid point %d = %v, want exactly %v", i, x, want)
		}
	}
}

// randomSpec builds a bounded random-but-valid spec for round-trip
// checks. Durations stay non-negative (time.ParseDuration round-trips
// any duration, but the knobs are semantically non-negative anyway).
func randomSpec(r *rand.Rand) Spec {
	sp := Spec{
		System:   SystemNames()[r.IntN(len(SystemNames()))],
		Workload: "bimodal:0.995:5µs:100µs",
		Seed:     r.Uint64N(1 << 40),
	}
	k := Knobs{Workers: 1 + r.IntN(32)}
	if r.IntN(2) == 0 {
		k.Outstanding = 1 + r.IntN(8)
	}
	if r.IntN(2) == 0 {
		k.Slice = Duration(time.Duration(r.IntN(100)) * time.Microsecond)
	}
	sp.Knobs = &k
	switch r.IntN(3) {
	case 0:
		sp.Load = &LoadSpec{RPS: float64(1000 * (1 + r.IntN(1000)))}
	case 1:
		sp.Load = &LoadSpec{Rho: 0.05 * float64(1+r.IntN(19))}
	case 2:
		lo := float64(1000 * (1 + r.IntN(100)))
		sp.Load = &LoadSpec{Grid: &Grid{Lo: lo, Hi: lo * 10, Step: lo}}
	}
	if r.IntN(3) == 0 {
		sp.Keys = &KeysSpec{N: 1 + r.IntN(10_000), Skew: float64(r.IntN(12)) / 10}
	}
	if r.IntN(4) == 0 {
		sp.Quality = &QualitySpec{Warmup: 1 + r.IntN(1000), Measure: 1 + r.IntN(10_000)}
	}
	return sp
}

// TestSpecRoundTrip checks Decode(Encode(s)) == s for deterministic
// random specs: the serialized form loses nothing.
func TestSpecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 17))
	for i := 0; i < 200; i++ {
		sp := randomSpec(r)
		b, err := sp.Encode()
		if err != nil {
			t.Fatalf("encode %+v: %v", sp, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		if !reflect.DeepEqual(got, sp) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v\njson: %s", sp, got, b)
		}
	}
}

// TestFingerprintStable pins one fingerprint so accidental schema or
// hashing changes (which would orphan every cached result) fail loudly,
// and checks basic fingerprint semantics.
func TestFingerprintStable(t *testing.T) {
	sp := Spec{
		System:   "offload",
		Knobs:    &Knobs{Workers: 4, Outstanding: 4, Slice: Duration(10 * time.Microsecond)},
		Workload: "bimodal:0.995:5µs:100µs",
		Load:     &LoadSpec{RPS: 400_000},
		Seed:     7,
	}
	const want = "spec-4f3702dfaf2be8395bfa82a2"
	if got := sp.Fingerprint(); got != want {
		t.Errorf("Fingerprint() = %q, want %q (if the schema changed on purpose, bump SchemaVersion and update this golden)", got, want)
	}
	if sp.Fingerprint() != sp.Fingerprint() {
		t.Error("fingerprint is not deterministic")
	}
	other := sp
	other.Seed = 8
	if other.Fingerprint() == sp.Fingerprint() {
		t.Error("specs differing in seed share a fingerprint")
	}
}

// TestValidateRejectsForeignKnobs checks the loud-failure contract: a
// knob a system does not read, or a spec Build would refuse, refuses to
// validate or build.
func TestValidateRejectsForeignKnobs(t *testing.T) {
	for _, c := range []struct {
		name string
		sp   Spec
		want string
	}{
		{"slice on rss", Spec{System: "rss", Knobs: &Knobs{Workers: 4, Slice: Duration(10 * time.Microsecond)}}, `system "rss" does not read slice`},
		{"rss without workers", Spec{System: "rss"}, "needs workers >= 1"},
		{"offload without outstanding", Spec{System: "offload", Knobs: &Knobs{Workers: 4}}, "needs outstanding >= 1"},
		{"unknown policy", Spec{System: "offload", Knobs: &Knobs{Workers: 4, Outstanding: 2, Policy: "bogus"}}, `unknown policy "bogus"`},
	} {
		sp := c.sp
		sp.Workload, sp.Load = "fixed:1µs", &LoadSpec{RPS: 1000}
		if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate err = %v, want a refusal naming %q", c.name, err, c.want)
		}
		if _, err := Build(sp); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Build err = %v, want a refusal naming %q", c.name, err, c.want)
		}
	}
	sp := Spec{System: "rss", Knobs: &Knobs{Workers: 4}, Workload: "fixed:1µs", Load: &LoadSpec{RPS: 1000}}
	if err := sp.Validate(); err != nil {
		t.Errorf("clean rss spec failed validation: %v", err)
	}
}

// TestValidateLoad checks the exactly-one-load-mode contract.
func TestValidateLoad(t *testing.T) {
	base := Spec{System: "rpcvalet", Knobs: &Knobs{Workers: 2}, Workload: "fixed:1µs"}
	bad := []*LoadSpec{
		{},                    // no mode
		{RPS: 1000, Rho: 0.5}, // two modes
		{Rho: 0.5, Grid: &Grid{Lo: 1, Hi: 2, Step: 1}},       // two modes
		{Grid: &Grid{Lo: 0, Hi: 2, Step: 1}},                 // lo <= 0
		{KSweep: &KSweep{Lo: 1, Hi: 4}},                      // ksweep without rps
		{RPS: 1000, Rho: 0.5, KSweep: &KSweep{Lo: 1, Hi: 4}}, // ksweep + rho
		{RPS: -5}, // negative
		{RPS: 1000, KSweep: &KSweep{Lo: 1, Hi: 7}}, // rpcvalet does not read outstanding
	}
	for _, l := range bad {
		sp := base
		sp.Load = l
		if err := sp.Validate(); err == nil {
			t.Errorf("load %+v validated; want rejection", *l)
		}
	}
	good := []*LoadSpec{
		{RPS: 1000},
		{Rho: 0.7},
		{Grid: &Grid{Lo: 1000, Hi: 5000, Step: 1000}},
	}
	for _, l := range good {
		sp := base
		sp.Load = l
		if err := sp.Validate(); err != nil {
			t.Errorf("load %+v failed validation: %v", *l, err)
		}
	}
	// A k sweep supplies the outstanding knob it varies.
	ks := Spec{System: "offload", Knobs: &Knobs{Workers: 2}, Workload: "fixed:1µs", Load: &LoadSpec{RPS: 1000, KSweep: &KSweep{Lo: 1, Hi: 7}}}
	if err := ks.Validate(); err != nil {
		t.Errorf("offload k sweep failed validation: %v", err)
	}
}

// TestDurationDecode checks both accepted wire forms: duration strings
// and plain nanosecond numbers.
func TestDurationDecode(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"10µs"`), &d); err != nil || d.D() != 10*time.Microsecond {
		t.Errorf(`decode "10µs" = %v, %v`, d.D(), err)
	}
	if err := json.Unmarshal([]byte(`2500`), &d); err != nil || d.D() != 2500*time.Nanosecond {
		t.Errorf("decode 2500 = %v, %v", d.D(), err)
	}
	if err := json.Unmarshal([]byte(`"banana"`), &d); err == nil {
		t.Error(`decode "banana" succeeded; want error`)
	}
}

// TestDecodeRejectsUnknownFields checks that a misspelled knob cannot
// silently vanish.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"system":"offload","knobs":{"workerz":4}}`)); err == nil {
		t.Error("spec with unknown knob field decoded; want error")
	}
	if _, err := DecodePreset([]byte(`{"id":"x","seriez":[]}`)); err == nil {
		t.Error("preset with unknown field decoded; want error")
	}
	// Fields the schema used to carry but nothing simulated read.
	for _, gone := range []string{`"seeds":[1,2]`, `"trace":true`, `"name":"a"`, `"attribution":false`} {
		if _, err := Decode([]byte(`{"system":"offload",` + gone + `}`)); err == nil {
			t.Errorf("spec with retired field %s decoded; want error", gone)
		}
	}
	// The pre-fold tenants preset shape: server and tenants at top level.
	if _, err := DecodePreset([]byte(`{"id":"x","system":"offload","tenants":[{"name":"a","rps":1,"workload":"fixed:1µs"}]}`)); err == nil {
		t.Error("preset with top-level system/tenants decoded; want error")
	}
}

// TestValidateTenants checks the tenants contract: the block replaces
// workload, load and flow; tenants are well-formed; and a class above 0
// needs a system with a class-aware queue.
func TestValidateTenants(t *testing.T) {
	base := func() Spec {
		return Spec{
			System: "offload",
			Knobs:  &Knobs{Workers: 2, Outstanding: 2},
			Tenants: []TenantSpec{
				{Name: "hi", RPS: 1000, Workload: "fixed:1µs"},
				{Name: "lo", RPS: 100, Workload: "exp:50µs", Class: 1},
			},
		}
	}
	if _, err := Build(base()); err != nil {
		t.Fatalf("valid tenants spec rejected: %v", err)
	}
	flat := base().WithFlatTenants()
	flat.System, flat.Knobs = "rss", &Knobs{Workers: 2}
	if err := flat.Validate(); err != nil {
		t.Errorf("class-0 tenants on rss rejected: %v", err)
	}
	p := Preset{ID: "t", Series: []SeriesSpec{{Label: "mix", Spec: base()}}}
	if err := p.Validate(); err != nil {
		t.Errorf("tenants series needs no workload or load, yet: %v", err)
	}
	p.Series[0].Tenants = nil
	if err := p.Validate(); err == nil {
		t.Error("series with neither tenants nor workload validated; want rejection")
	}

	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"with workload", func(s *Spec) { s.Workload = "fixed:1µs" }, "drop workload"},
		{"with load", func(s *Spec) { s.Load = &LoadSpec{RPS: 1000} }, "drop workload"},
		{"with flow", func(s *Spec) { s.Flow = &FlowSpec{Flows: 8} }, "flow"},
		{"class on rss", func(s *Spec) { s.System, s.Knobs = "rss", &Knobs{Workers: 2} }, `system "rss" does not read class`},
		{"class out of range", func(s *Spec) { s.Tenants[1].Class = 2 }, "outside"},
		{"negative class", func(s *Spec) { s.Tenants[0].Class = -1 }, "outside"},
		{"unnamed", func(s *Spec) { s.Tenants[0].Name = "" }, "name"},
		{"zero rate", func(s *Spec) { s.Tenants[1].RPS = 0 }, "rps"},
		{"bad workload", func(s *Spec) { s.Tenants[1].Workload = "banana" }, `tenant "lo"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := base()
			tc.mut(&sp)
			err := sp.Validate()
			if err == nil {
				t.Fatalf("Validate accepted tenants %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWithFlatTenants checks the FIFO variant of a tenant mix is a copy:
// deriving it must not flatten the spec it came from.
func TestWithFlatTenants(t *testing.T) {
	sp := Spec{Tenants: []TenantSpec{{Name: "a"}, {Name: "b", Class: 1}}}
	flat := sp.WithFlatTenants()
	if flat.Tenants[1].Class != 0 || flat.Tenants[1].Name != "b" {
		t.Errorf("flat variant = %+v, want class 0 with the tenant otherwise intact", flat.Tenants[1])
	}
	if sp.Tenants[1].Class != 1 {
		t.Error("WithFlatTenants rewrote the receiver's tenant list")
	}
}

// TestKnobNames checks the reflected knob list against the schema: every
// field is tagged, and a knob is set exactly when the encoding carries it.
func TestKnobNames(t *testing.T) {
	k := Knobs{Workers: 4, Sockets: 3, DirectInterrupts: true, Slice: Duration(time.Microsecond)}
	all, set := k.Names()
	if len(all) != reflect.TypeOf(k).NumField() {
		t.Fatalf("all = %d names for %d fields", len(all), reflect.TypeOf(k).NumField())
	}
	for _, n := range all {
		if n == "" || n == "-" {
			t.Fatalf("knob without a JSON name in %v", all)
		}
	}
	if want := []string{"workers", "slice", "sockets", "directirq"}; !reflect.DeepEqual(set, want) {
		t.Errorf("set = %v, want %v (declaration order)", set, want)
	}
	b, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	var enc map[string]json.RawMessage
	if err := json.Unmarshal(b, &enc); err != nil {
		t.Fatal(err)
	}
	if len(enc) != len(set) {
		t.Errorf("encoding carries %d knobs, Names reports %d set", len(enc), len(set))
	}
}

// TestCalibrationGate: a calibration block names duration fields of
// params.Params its system reads by their Go names and gives each a
// non-negative value; anything else fails Validate and Build, naming the
// key.
func TestCalibrationGate(t *testing.T) {
	base := Spec{System: "rss", Knobs: &Knobs{Workers: 2}, Workload: "fixed:1µs", Load: &LoadSpec{RPS: 1000}}
	for _, c := range []struct {
		name    string
		cal     map[string]Duration
		offload bool   // on an offload spec instead of base
		want    string // "" accepts
	}{
		{"unknown name", map[string]Duration{"NicHostOneway": 1}, false, `"NicHostOneway"`},
		{"float field", map[string]Duration{"WireBandwidth": 1}, false, `"WireBandwidth"`},
		{"struct field", map[string]Duration{"HostTimer": 1}, false, `"HostTimer"`},
		{"negative", map[string]Duration{"StealCost": -1}, false, "StealCost is negative"},
		{"zero", map[string]Duration{"PickupMemPenalty": 0}, false, ""},
		{"unread on rss", map[string]Duration{"ArmTxCost": 25, "NicHostOneWay": 500}, false, `system "rss" does not read ArmTxCost, NicHostOneWay`},
		{"several on offload", map[string]Duration{"ArmTxCost": 25, "NicHostOneWay": 500}, true, ""},
	} {
		sp := base
		if c.offload {
			sp.System, sp.Knobs = "offload", &Knobs{Workers: 2, Outstanding: 2}
		}
		sp.Calibration = c.cal
		err := sp.Validate()
		if _, berr := Build(sp); (berr == nil) != (err == nil) {
			t.Errorf("%s: Validate says %v, Build says %v", c.name, err, berr)
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want a refusal naming %s", c.name, err, c.want)
		}
	}
	sp := base
	sp.Calibration = map[string]Duration{"NicHostOneWay": Duration(500 * time.Nanosecond), "PickupMemPenalty": 0}
	p, err := sp.Params()
	if want := params.Default(); err != nil || p.NicHostOneWay != 500*time.Nanosecond || p.PickupMemPenalty != 0 ||
		p.ArmTxCost != want.ArmTxCost {
		t.Errorf("Params() = %+v, %v: want the two fields replaced and the rest default", p, err)
	}
}

// TestDecodeAny checks both accepted file shapes.
func TestDecodeAny(t *testing.T) {
	p, err := DecodeAny([]byte(`{"system":"rss","knobs":{"workers":4},"workload":"fixed:1µs","load":{"rps":1000}}`))
	if err != nil {
		t.Fatalf("bare spec: %v", err)
	}
	if len(p.Series) != 1 || p.Series[0].System != "rss" || p.ID != "rss" {
		t.Errorf("bare spec wrapped wrong: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("wrapped bare spec fails validation: %v", err)
	}

	p, err = DecodeAny([]byte(`{"id":"two","workload":"fixed:1µs","load":{"rps":1000},"series":[{"label":"a","system":"rss","knobs":{"workers":2}}]}`))
	if err != nil {
		t.Fatalf("preset: %v", err)
	}
	if p.ID != "two" || len(p.Series) != 1 {
		t.Errorf("preset decoded wrong: %+v", p)
	}
	if sp := p.SpecFor(0); sp.Workload != "fixed:1µs" || sp.Load == nil {
		t.Errorf("series defaults not inherited: %+v", sp)
	}

	if _, err := DecodeAny([]byte(`{"id":"empty"}`)); err == nil {
		t.Error("file with neither series nor system decoded; want error")
	}
}
