package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"mindgap/internal/attr"
	"mindgap/internal/experiment"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/internal/trace"
)

// TestTraceDefaultGolden pins the default run's text output with -attr
// (lifecycle listing, phase waterfall, decision audit, slowest-K) byte for
// byte: it was captured before the lifecycle probe replaced the separate
// tracer and collector hooks, and both consumers must keep seeing the
// stream they saw then.
func TestTraceDefaultGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/trace-default-attr.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-attr"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("mindgap-trace -attr drifted from testdata/trace-default-attr.golden:\n%s", got.Bytes())
	}
}

// TestEverySystemTraces drives the CLI over baselines whose models once
// refused a tracer or a collector: each must print lifecycles and export
// well-formed Chrome JSON with the attribution tracks appended.
func TestEverySystemTraces(t *testing.T) {
	for _, preset := range []string{"table-ipc", "figure6-cxl"} {
		var text, chrome bytes.Buffer
		if err := run([]string{"-scenario", preset, "-rps", "100000", "-attr"}, &text); err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if !bytes.Contains(text.Bytes(), []byte("respond req=")) || !bytes.Contains(text.Bytes(), []byte("latency attribution (500 completed requests)")) {
			t.Errorf("%s: text output lacks lifecycles or the waterfall:\n%s", preset, text.Bytes())
		}
		if err := run([]string{"-scenario", preset, "-rps", "100000", "-attr", "-format", "chrome"}, &chrome); err != nil {
			t.Fatalf("%s chrome: %v", preset, err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: chrome export is not a populated trace (err %v)", preset, err)
		}
	}
}

// TestTracedPointIsThePointTheFiguresMeasure runs the CLI over a flow
// population, a tenant mix and a keyed series, then measures each spec
// twice through the CLI's own compile step — bare, and with the tracer and
// collector attached: the traced run must be causally valid and agree with
// the untraced one on every Result field and on Engine.Executed(). The
// drive loop is experiment's, so the flow generator, one stream per tenant
// and the zipf keys are the ones the figures use; attaching observers
// moves nothing.
func TestTracedPointIsThePointTheFiguresMeasure(t *testing.T) {
	for _, c := range []struct {
		preset string
		rps    float64 // a grid preset needs the one rate -rps gives it
	}{
		{preset: "figure-flowrule"},
		{preset: "table-tenants"},
		{preset: "baselines", rps: 400_000},
	} {
		args := []string{"-scenario", c.preset, "-attr"}
		if c.rps > 0 {
			args = append(args, "-rps", strconv.FormatFloat(c.rps, 'f', -1, 64))
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !bytes.Contains(out.Bytes(), []byte("respond req=")) || !bytes.Contains(out.Bytes(), []byte("latency attribution (")) {
			t.Errorf("%v: output lacks lifecycles or the waterfall:\n%s", args, out.Bytes())
		}

		sp, err := traceSpec(c.preset)
		if err != nil {
			t.Fatal(err)
		}
		if c.rps > 0 {
			sp.Load = &scenario.LoadSpec{RPS: c.rps}
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
