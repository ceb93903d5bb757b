package hypotheses

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mindgap/internal/experiment"
	"mindgap/internal/hypothesis"
	"mindgap/internal/runner"
)

var update = flag.Bool("update", false, "rewrite hypothesis.json in canonical form and regenerate FINDINGS.md")

func TestSpecsAreCanonical(t *testing.T) {
	for _, name := range Names() {
		raw, err := Raw(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := hypothesis.Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if *update && !bytes.Equal(raw, enc) {
			path := filepath.Join(name, "hypothesis.json")
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s in canonical form", path)
			continue
		}
		if !bytes.Equal(raw, enc) {
			t.Errorf("%s/hypothesis.json is not canonical; run `go test ./hypotheses -run TestSpecsAreCanonical -update`", name)
		}
	}
}

func TestSpecsValidate(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("corpus holds %d hypotheses, want at least 8", len(names))
	}
	twins := 0
	for _, name := range names {
		s, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.ID != name {
			t.Errorf("directory %q holds hypothesis id %q — they must match", name, s.ID)
		}
		if s.Quality == nil {
			t.Errorf("%s: checked-in hypotheses must pin quality, or FINDINGS bytes would depend on the run-time -quality flag", name)
		}
		if s.Analytic != nil {
			twins++
		}
	}
	if twins == 0 {
		t.Error("corpus declares no analytic twin; at least one hypothesis must cross-check theory")
	}
}

// runAll executes every hypothesis on one runner and renders FINDINGS.
func runAll(t *testing.T, rn *runner.Runner) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(Names()))
	for _, name := range Names() {
		s, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := hypothesis.Run(context.Background(), rn, s, experiment.Quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = rep.Render()
		if !rep.Pass {
			t.Errorf("%s: verdict FAIL — a checked-in claim no longer holds:\n%s", name, out[name])
		}
	}
	return out
}

// TestFindingsGolden executes the whole corpus at two parallelism levels
// and demands byte-identical FINDINGS from both, matching the checked-in
// goldens. This is the determinism contract and the regression tripwire
// in one: scheduler-order nondeterminism, a verdict flip, or any drift
// in the measured numbers all land here as a byte diff.
func TestFindingsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("executes the full hypothesis corpus twice")
	}
	seq := runAll(t, &runner.Runner{Parallelism: 1})
	par := runAll(t, &runner.Runner{Parallelism: 4})
	for _, name := range Names() {
		if !bytes.Equal(seq[name], par[name]) {
			t.Errorf("%s: FINDINGS differ between -j1 and -j4:\n--- j1 ---\n%s\n--- j4 ---\n%s",
				name, seq[name], par[name])
			continue
		}
		if *update {
			path := filepath.Join(name, "FINDINGS.md")
			if err := os.WriteFile(path, seq[name], 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s", path)
			continue
		}
		golden, err := Findings(name)
		if err != nil {
			t.Errorf("%s: no golden; run `go test ./hypotheses -run TestFindingsGolden -update`", name)
			continue
		}
		if !bytes.Equal(seq[name], golden) {
			t.Errorf("%s: FINDINGS drifted from golden:\n--- measured ---\n%s\n--- golden ---\n%s",
				name, seq[name], golden)
		}
	}
}

// TestCacheWarmReuse proves the corpus is fully cacheable: a second run
// against a warm cache must execute zero simulation points and render
// the same bytes.
func TestCacheWarmReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("executes one hypothesis")
	}
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load("stealing-beats-blind-rss")
	if err != nil {
		t.Fatal(err)
	}
	var executed, cached atomic.Int64
	rn := &runner.Runner{
		Parallelism: 2,
		Cache:       cache,
		Progress: func(ev runner.Event) {
			if ev.Cached {
				cached.Add(1)
			} else {
				executed.Add(1)
			}
		},
	}
	cold, err := hypothesis.Run(context.Background(), rn, s, experiment.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() == 0 {
		t.Fatal("cold run executed no points — cache cannot have been empty")
	}
	executed.Store(0)
	cached.Store(0)
	warm, err := hypothesis.Run(context.Background(), rn, s, experiment.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("warm run executed %d points, want 0 (all cached)", n)
	}
	if cached.Load() == 0 {
		t.Fatal("warm run reported no cached points")
	}
	if !bytes.Equal(cold.Render(), warm.Render()) {
		t.Fatal("warm FINDINGS differ from cold")
	}
}
