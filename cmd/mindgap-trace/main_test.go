package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
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
