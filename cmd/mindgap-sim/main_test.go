package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"mindgap/internal/attr"
	"mindgap/internal/experiment"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/internal/trace"
	"mindgap/scenarios"
)

// runSim runs the command on args and returns its stdout and stderr,
// failing the test unless it exits with code want.
func runSim(t *testing.T, want int, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"mindgap-sim"}, args...), &stdout, &stderr); code != want {
		t.Fatalf("%v: exit %d, want %d; stderr %q", args, code, want, stderr.String())
	}
	return stdout.String(), stderr.String()
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current model")

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name + ".golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout drifted from %s:\n%s", path, got)
	}
}

// TestPointGolden pins stdout byte for byte, for points and for the
// presets the quick grid does not print. The point goldens were captured
// from the command before -set replaced its per-knob flags (-workers 3,
// -cxl), with the wall time stripped; the -set spellings must reproduce
// them. point-shinjuku was re-captured when shinjuku stopped accepting
// outstanding: -system shinjuku had carried the default spec's k = 4 over,
// and vanilla Shinjuku keeps one request per core. point-cxl runs
// figure6-cxl's calibrated series at the default point. Each scenario-<p>
// golden is `-scenario <p> -quality quick -csv`: a preset no grid figure
// draws, whose numbers no other golden prints exactly (table-tenants'
// rows are the grid's X9 rows, and table-attribution's points are
// internal/experiment's tables/attribution.golden).
//
// Regenerate (only for intentional model changes):
//
//	go test ./cmd/mindgap-sim -update
func TestPointGolden(t *testing.T) {
	small := []string{"-warmup", "200", "-measure", "2000"}
	type golden struct {
		name string
		args []string
	}
	cases := []golden{
		{"point-offload", small},
		{"point-shinjuku", append([]string{"-system", "shinjuku", "-set", "workers=3", "-rps", "300000"}, small...)},
		{"point-rss", append([]string{"-system", "rss"}, small...)},
		{"point-cxl", append([]string{"-scenario", "figure6-cxl", "-dist", "bimodal:0.995:5µs:100µs", "-rps", "400000",
			"-set", "workers=4", "-set", "outstanding=4", "-set", "slice=10µs"}, small...)},
		{"point-flowdir-zipf", append([]string{"-system", "flowdir", "-zipf-keys", "1000", "-zipf-skew", "1.1"}, small...)},
		{"point-replicates", append([]string{"-replicates", "3", "-j", "2"}, small...)},
	}
	for _, p := range []string{"table-ipc", "table-wait", "table-policy", "table-dispersion", "table-affinity",
		"faas", "kvstore", "quickstart", "trace-default"} {
		cases = append(cases, golden{"scenario-" + p, []string{"-scenario", p, "-quality", "quick", "-csv"}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, stderr := runSim(t, 0, c.args...)
			checkGolden(t, c.name, got)
			if strings.HasPrefix(c.name, "point-") && !strings.HasPrefix(stderr, "walltime=") {
				t.Errorf("stderr lacks the wall time: %q", stderr)
			}
		})
	}
}

// TestOverridesApplyToFirstSeries: with an override, -scenario measures
// its first series as one point (the preset's workload and rate, the
// overriding system and knobs) instead of rendering the preset.
func TestOverridesApplyToFirstSeries(t *testing.T) {
	got, _ := runSim(t, 0, "-scenario", "trace-default", "-system", "rss", "-set", "workers=3", "-warmup", "100", "-measure", "500")
	if want := "system=rss workload=bimodal:0.8:3µs:40µs offered=200000 rps\n"; !strings.HasPrefix(got, want) {
		t.Errorf("got %q, want a point starting %q", got, want)
	}
}

// TestTenantMixNamesItsWorkloads: a tenant-mix spec has no single service
// distribution, so a point's header — measured and replicated alike —
// names each tenant's.
func TestTenantMixNamesItsWorkloads(t *testing.T) {
	small := []string{"-scenario", "table-tenants", "-set", "workers=4", "-warmup", "100", "-measure", "500"}
	want := "system=shinjuku-offload workload=fixed:2µs,uniform:100µs:400µs offered=308000 rps"
	for _, extra := range [][]string{nil, {"-replicates", "2"}} {
		got, _ := runSim(t, 0, append(small, extra...)...)
		if !strings.HasPrefix(got, want) {
			t.Errorf("%v: got %q, want a point starting %q", extra, got, want)
		}
	}
}

// TestUsageErrors: flags that do not apply, a seed list over a spec that
// pins its seed, and unknown names or values exit 2 with the reason on
// stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-csv"}, "-csv does not apply in point mode"},
		{[]string{"-scenario", "trace-default", "-set", "workers=3", "-csv"}, "-csv does not apply in point mode"},
		{[]string{"-trace", "text", "-csv"}, "-csv does not apply in trace mode"},
		{[]string{"-trace", "text", "-replicates", "2"}, "-replicates does not apply in trace mode"},
		{[]string{"-n", "3"}, "-n does not apply in point mode"},
		{[]string{"-trace", "xml"}, `unknown -trace "xml"`},
		{[]string{"-trace", "text", "-show", "bogus"}, `unknown -show "bogus"`},
		{[]string{"-scenario", "trace-default", "-replicates", "2"}, "scenario trace-default pins seed 7"},
		{[]string{"-set", "bogus=1"}, `unknown knob "bogus" (want name=value, name one of workers, outstanding,`},
		{[]string{"-set", "workers=many"}, "knobs.workers of type int"},
		{[]string{"-system", "rss", "-set", "slice=10µs"}, `system "rss" does not read slice`},
		{[]string{"-system", "shinjuku", "-set", "policy=informed-least-loaded"}, `system "shinjuku" does not read policy`},
		{[]string{"-scenario", "figure6-cxl", "-system", "rss", "-set", "workers=4", "-rps", "400000"}, `system "rss" does not read ArmRxCost, ArmTxCost, NicHostOneWay`},
	} {
		stdout, stderr := runSim(t, 2, c.args...)
		if stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: stdout %q, stderr %q; want stderr naming %q", c.args, stdout, stderr, c.want)
		}
	}
}

// TestTraceDefaultGolden pins the trace-default preset's text trace with
// -attr (lifecycle listing, phase waterfall, decision audit, slowest-K)
// byte for byte: it was captured before the lifecycle probe replaced the
// separate tracer and collector hooks, and both consumers must keep
// seeing the stream they saw then.
func TestTraceDefaultGolden(t *testing.T) {
	got, _ := runSim(t, 0, "-trace", "text", "-attr", "-scenario", "trace-default")
	checkGolden(t, "trace-default-attr", got)
}

// TestEverySystemTraces drives the CLI over baselines whose models once
// refused a tracer or a collector: each must print lifecycles and export
// well-formed Chrome JSON with the attribution tracks appended.
func TestEverySystemTraces(t *testing.T) {
	for _, preset := range []string{"table-ipc", "figure6-cxl"} {
		text, _ := runSim(t, 0, "-trace", "text", "-scenario", preset, "-rps", "100000", "-attr")
		if !strings.Contains(text, "respond req=") || !strings.Contains(text, "latency attribution (500 completed requests)") {
			t.Errorf("%s: text output lacks lifecycles or the waterfall:\n%s", preset, text)
		}
		chrome, _ := runSim(t, 0, "-trace", "chrome", "-scenario", preset, "-rps", "100000", "-attr")
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(chrome), &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: chrome export is not a populated trace (err %v)", preset, err)
		}
	}
}

// TestTracedPointIsThePointTheFiguresMeasure traces a flow population, a
// tenant mix and a keyed series through the CLI, then measures each spec
// twice through the CLI's own compile step — bare, and with the tracer
// and collector attached: the traced run must be causally valid and agree
// with the untraced one on every Result field and on Engine.Executed().
// The drive loop is experiment's, so the flow generator, one stream per
// tenant and the zipf keys are the ones the figures use; attaching
// observers moves nothing.
func TestTracedPointIsThePointTheFiguresMeasure(t *testing.T) {
	for _, c := range []struct {
		preset string
		rps    float64 // a grid preset needs the one rate -rps gives it
	}{
		{preset: "figure-flowrule"},
		{preset: "table-tenants"},
		{preset: "baselines", rps: 400_000},
	} {
		args := []string{"-trace", "text", "-scenario", c.preset, "-attr"}
		sp := scenarios.MustLoad(c.preset).SpecFor(0)
		if c.rps > 0 {
			args = append(args, "-rps", strconv.FormatFloat(c.rps, 'f', -1, 64))
			sp.Load = &scenario.LoadSpec{RPS: c.rps}
		}
		if out, _ := runSim(t, 0, args...); !strings.Contains(out, "respond req=") || !strings.Contains(out, "latency attribution (") {
			t.Errorf("%v: output lacks lifecycles or the waterfall:\n%s", args, out)
		}

		measure := func(o scenario.Options) (experiment.Result, uint64) {
			cfg, err := tracedPoint(sp, o)
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			build := cfg.Factory
			var eng *sim.Engine
			cfg.Factory = func(e *sim.Engine, rec *stats.Recorder, done func(*task.Request)) scenario.System {
				eng = e
				return build(e, rec, done)
			}
			return experiment.RunPoint(cfg), eng.Executed()
		}
		bare, bareEvents := measure(scenario.Options{})
		buf := trace.New(0)
		traced, events := measure(scenario.Options{Tracer: buf, Attr: attr.New(attr.Config{})})
		if err := buf.ValidateAll(); err != nil {
			t.Errorf("%v: %v", args, err)
		}
		if traced != bare || events != bareEvents {
			t.Errorf("%v: attaching observers changed the run\nwith:    %+v (%d events)\nwithout: %+v (%d events)",
				args, traced, events, bare, bareEvents)
		}
		if bare.Completed != 500 || bare.P50 <= 0 || bare.P99 < bare.P50 {
			t.Errorf("%v: implausible point %+v", args, bare)
		}
	}
}
