package experiment

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"testing"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/scenarios"
)

// testQuality keeps sweep tests fast while still crossing the saturation
// knee (so truncation is exercised).
var testQuality = Quality{Warmup: 500, Measure: 3_000, Seed: 7}

// runFigure measures a series preset's Plain rows on rn (nil = default
// parallel runner) and assembles its figure.
func runFigure(t *testing.T, p scenario.Preset, q Quality, rn *runner.Runner) Figure {
	t.Helper()
	res, err := Run(context.Background(), rn, p, q, Plain)
	if err != nil {
		t.Fatalf("preset %s: %v", p.ID, err)
	}
	return NewFigure(p, res)
}

// renderFigure executes a preset at the given parallelism through
// RenderPreset and returns its CSV bytes — what
// `mindgap-sim -scenario <name> -csv` prints.
func renderFigure(t *testing.T, p scenario.Preset, q Quality, parallelism int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := RenderPreset(context.Background(), &runner.Runner{Parallelism: parallelism}, p, q, &buf, CSV); err != nil {
		t.Fatalf("preset %s: %v", p.ID, err)
	}
	return buf.Bytes()
}

// TestFigureByteIdenticalAcrossParallelism is the refactor's headline
// acceptance check in miniature: a real figure rendered at -j1 and at
// GOMAXPROCS parallelism must be byte-identical, including where the
// saturation rule truncates each curve.
func TestFigureByteIdenticalAcrossParallelism(t *testing.T) {
	p := scenarios.MustLoad("figure2")
	serial := renderFigure(t, p, testQuality, 1)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := renderFigure(t, p, testQuality, par); !bytes.Equal(serial, got) {
			t.Fatalf("figure2 CSV differs between j=1 and j=%d:\n--- j=1 ---\n%s\n--- j=%d ---\n%s",
				par, serial, par, got)
		}
	}
	if len(bytes.TrimSpace(serial)) == 0 {
		t.Fatal("rendered figure is empty")
	}
}

// TestFigureCancellation cancels a figure sweep up front: Run must
// return the context error and an empty (but well-formed) figure rather
// than hanging or panicking.
func TestFigureCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := scenarios.MustLoad("figure2")
	res, err := Run(ctx, &runner.Runner{Parallelism: 2}, p, testQuality, Plain)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	f := NewFigure(p, res)
	if len(f.Series) != 2 {
		t.Fatalf("got %d series labels, want 2 (with empty prefixes)", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Results) != 0 {
			t.Fatalf("series %q has %d results before any point could run", s.Label, len(s.Results))
		}
	}
}

// pointKeys compiles one series of a preset as Plain rows and returns its
// points' cache keys.
func pointKeys(t *testing.T, preset string, series int) []string {
	t.Helper()
	p := scenarios.MustLoad(preset)
	s, err := SpecSeries(p.Series[series].Label, p.SpecFor(series), Quick, Plain)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(s.Points))
	for i, pt := range s.Points {
		keys[i] = pt.Key
	}
	return keys
}

// TestPointKeysIdentifyTheScenarioNotTheSweep: two presets that declare the
// same series (figure6 and figure6-cxl both plot shinjuku on 15 workers)
// key its points identically, so one run of the grid measures them once;
// another series keys apart. (The runner files each row kind under its own
// type, so kinds need no key of their own.)
func TestPointKeysIdentifyTheScenarioNotTheSweep(t *testing.T) {
	shared := pointKeys(t, "figure6", 1)
	if len(shared) == 0 || shared[0] == "" {
		t.Fatalf("figure6's shinjuku series has no keyed points: %q", shared)
	}
	if same := pointKeys(t, "figure6-cxl", 1); !slices.Equal(same, shared) {
		t.Errorf("the series is keyed differently under figure6-cxl:\n%q\n%q", same, shared)
	}
	for _, k := range pointKeys(t, "figure6", 0) {
		if slices.Contains(shared, k) {
			t.Errorf("another series shares key %q", k)
		}
	}
}
