package scenarios

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// TestPresetsAreCanonical is the golden check for every checked-in
// preset: the file must decode strictly, validate, and re-encode to the
// exact bytes on disk — so presets stay in the one canonical form and a
// hand edit that drifts from it (or a schema change that re-shapes the
// encoding) fails here with a byte diff.
func TestPresetsAreCanonical(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no embedded presets")
	}
	for _, name := range names {
		raw, err := Raw(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		p, err := scenario.DecodePreset(raw)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.ID != name {
			t.Errorf("%s: preset id %q does not match file name", name, p.ID)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		enc, err := p.Encode()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !bytes.Equal(enc, raw) {
			t.Errorf("%s is not canonical: re-encoding changes the bytes.\n--- on disk ---\n%s--- canonical ---\n%s", name, raw, enc)
		}
	}
}

// TestPresetSystemsBuild builds every series of every preset through the
// registry: the checked-in experiment definitions must all be runnable.
func TestPresetSystemsBuild(t *testing.T) {
	for _, name := range Names() {
		p, err := Load(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for i, s := range p.Series {
			sp := p.SpecFor(i)
			if sp.Load != nil && sp.Load.KSweep != nil {
				// A k sweep's spec leaves outstanding to the sweep axis.
				sp = sp.WithOutstanding(sp.Load.KSweep.Lo)
			}
			f, err := scenario.Build(sp)
			if err != nil {
				t.Errorf("%s series %q: %v", name, s.Label, err)
				continue
			}
			if sys := f(sim.New(), nil, func(*task.Request) {}); sys == nil || sys.Name() == "" {
				t.Errorf("%s series %q: built a nameless system", name, s.Label)
			}
		}
	}
}

// TestUncalibratedFingerprintsHold pins the fingerprint of every series
// that carries no calibration block, one "preset<TAB>label<TAB>fingerprint"
// line each: the block is omitted from their encoding, so their cached
// results and memo entries stay theirs. A preset edit that moves one on
// purpose updates the line.
func TestUncalibratedFingerprintsHold(t *testing.T) {
	want, err := os.ReadFile("testdata/fingerprints.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, name := range Names() {
		p, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range p.Series {
			if sp := p.SpecFor(i); sp.Calibration == nil {
				fmt.Fprintf(&got, "%s\t%s\t%s\n", name, s.Label, sp.Fingerprint())
			}
		}
	}
	if got.String() != string(want) {
		t.Errorf("uncalibrated series fingerprints moved:\n--- want ---\n%s--- got ---\n%s", want, got.String())
	}
}

// TestLoadUnknown checks the error path.
func TestLoadUnknown(t *testing.T) {
	if _, err := Load("no-such-preset"); err == nil {
		t.Error("Load of a missing preset succeeded")
	}
}
