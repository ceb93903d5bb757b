package experiment

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"mindgap/internal/params"
	"mindgap/internal/scenario"
)

// TestReadSetsMatchTheModels checks each system's declared read set both
// ways against the simulator. One small point runs at each knob shape
// that changes what a system reads (directirq adds CXLOneWay, sockets > 1
// adds NUMAPenalty), once as built and once per params.Params duration
// set to another value. The model is built by the Builder directly, past
// the gate that would refuse an undeclared name. Every declared duration
// must move the Result at one or more shapes of its system, and no
// undeclared one may move any.
func TestReadSetsMatchTheModels(t *testing.T) {
	slice := scenario.Duration(10 * time.Microsecond)
	knobs := func(k scenario.Knobs) *scenario.Knobs { return &k }
	shapes := []scenario.Spec{
		{System: "offload", Knobs: knobs(scenario.Knobs{Workers: 4, Outstanding: 2, Slice: slice})},
		{System: "offload", Knobs: knobs(scenario.Knobs{Workers: 4, Outstanding: 2, Slice: slice, DirectInterrupts: true})},
		{System: "shinjuku", Knobs: knobs(scenario.Knobs{Workers: 4, Slice: slice})},
		{System: "shinjuku", Knobs: knobs(scenario.Knobs{Workers: 4, Slice: slice, Sockets: 2})},
		{System: "rss", Knobs: knobs(scenario.Knobs{Workers: 4})},
		{System: "zygos", Knobs: knobs(scenario.Knobs{Workers: 4})},
		{System: "flowdir", Knobs: knobs(scenario.Knobs{Workers: 4}), Keys: &scenario.KeysSpec{N: 64, Skew: 1.1}},
		{System: "erss", Knobs: knobs(scenario.Knobs{Workers: 4})},
		{System: "rpcvalet", Knobs: knobs(scenario.Knobs{Workers: 4})},
		{System: "flowrule", Knobs: knobs(scenario.Knobs{Workers: 4}), Workload: "fixed:170ns", Flow: &scenario.FlowSpec{Flows: 4096}},
	}
	var durations []string
	pt := reflect.TypeOf(params.Params{})
	for i := 0; i < pt.NumField(); i++ {
		if f := pt.Field(i); f.Type == reflect.TypeOf(time.Duration(0)) {
			durations = append(durations, f.Name)
		}
	}
	if len(durations) != 24 {
		t.Fatalf("params.Params has %d durations, want 24: %v", len(durations), durations)
	}
	moved := map[string]map[string]bool{}
	for _, sp := range shapes {
		if sp.Workload == "" {
			sp.Workload = "bimodal:0.99:4µs:60µs"
		}
		cfg, err := PointConfigFor(sp, Quality{Warmup: 200, Measure: 2000, Seed: 7})
		if err != nil {
			t.Fatalf("%s %+v: %v", sp.System, *sp.Knobs, err)
		}
		cfg.OfferedRPS = 400_000
		base := RunPoint(cfg)
		b, _ := scenario.Lookup(sp.System)
		if moved[b.Name] == nil {
			moved[b.Name] = map[string]bool{}
		}
		for _, name := range durations {
			p := params.Default()
			f := reflect.ValueOf(&p).Elem().FieldByName(name)
			f.SetInt(f.Int() + int64(333*time.Nanosecond))
			if cfg.Factory, err = b.Build(scenario.Options{}, sp, p); err != nil {
				t.Fatalf("%s with %s: %v", sp.System, name, err)
			}
			if RunPoint(cfg) != base {
				moved[b.Name][name] = true
			}
		}
	}
	for _, b := range scenario.Systems() {
		for _, name := range durations {
			if declared := slices.Contains(b.Reads, name); declared != moved[b.Name][name] {
				t.Errorf("%s: declares %s %t, but the Result moved with it %t", b.Name, name, declared, moved[b.Name][name])
			}
		}
	}
}
