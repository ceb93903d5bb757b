package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mindgap/scenarios"
)

var updateGolden = flag.Bool("update", false, "rewrite zero-fault golden outputs")

// zeroFaultQuality is deliberately small: the goldens pin byte-identical
// output across every checked-in preset, not statistically converged
// numbers, so a few thousand completions per point suffice.
var zeroFaultQuality = Quality{Warmup: 500, Measure: 3000, Seed: 7}

// isFaultPreset reports whether the named preset exercises the fault
// layer; those presets postdate the zero-fault goldens and are covered
// by the fault determinism tests instead.
func isFaultPreset(name string) bool {
	p, err := scenarios.Load(name)
	if err != nil {
		return false
	}
	for i := range p.Series {
		if p.SpecFor(i).Faults != nil {
			return true
		}
	}
	return false
}

// renderPreset produces the canonical textual form of one preset's
// measured output: what `mindgap-sim -scenario <name> -csv` prints — the
// figure CSV, or the per-tenant lines of a tenant mix — less a tenant
// mix's leading "# scenario" comment, which the goldens do not hold.
func renderPreset(t *testing.T, name string) []byte {
	t.Helper()
	out := renderFigure(t, scenarios.MustLoad(name), zeroFaultQuality, 4)
	if bytes.HasPrefix(out, []byte("#")) {
		out = out[bytes.IndexByte(out, '\n')+1:]
	}
	return out
}

// TestZeroFaultGolden guards the fault-injection hooks' overhead-free off
// path: with no Faults block in a spec, every checked-in preset must
// produce output byte-identical to the pre-fault-layer goldens under
// testdata/zerofault. A diff here means the hooks changed healthy-system
// behaviour (an extra event, a perturbed RNG stream, a reordered
// tie-break), which is never acceptable.
//
// Regenerate (only for intentional model changes):
//
//	go test ./internal/experiment -run TestZeroFaultGolden -update
func TestZeroFaultGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("zero-fault golden sweep is full-mode only")
	}
	for _, name := range scenarios.Names() {
		name := name
		if isFaultPreset(name) {
			continue // fault presets have no pre-fault-layer golden
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := renderPreset(t, name)
			path := filepath.Join("testdata", "zerofault", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("preset %s output diverged from zero-fault golden\ngot:\n%s\nwant:\n%s",
					name, got, want)
			}
		})
	}
}
