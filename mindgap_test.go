package mindgap

import (
	"slices"
	"strings"
	"testing"

	"mindgap/internal/experiment"
	"mindgap/scenarios"
)

func TestFiguresListStableAndComplete(t *testing.T) {
	ids := Figures()
	if len(ids) != len(experiment.FigureIDs) {
		t.Fatalf("Figures() returned %d ids, registry has %d", len(ids), len(experiment.FigureIDs))
	}
	// The library and mindgap-bench's -fig flag list the same set: both
	// derive from experiment.FigureIDs, and every entry names a preset
	// that loads.
	for _, f := range experiment.FigureIDs {
		if !slices.Contains(ids, f.Source) {
			t.Errorf("mindgap-bench -fig %s (preset %s) missing from Figures()", f.ID, f.Source)
		}
		if _, err := scenarios.Load(f.Source); err != nil {
			t.Errorf("-fig %s: %v", f.ID, err)
		}
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("Figures() not sorted: %v", ids)
		}
	}
	for _, want := range []string{"figure2", "figure3", "figure4", "figure5", "figure6",
		"figure-faults-niccrash", "figure-faults-lossyfabric", "figure-flowrule"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("paper figure %q missing from registry", want)
		}
	}
}

func TestRunFigureUnknownID(t *testing.T) {
	_, err := RunFigure("figure99", Quick)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	if !strings.Contains(err.Error(), "figure99") {
		t.Fatalf("error does not name the id: %v", err)
	}
}

func TestRunFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure harness")
	}
	f, err := RunFigure("figure4", Quality{Warmup: 300, Measure: 2_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "figure4" || len(f.Series) != 2 {
		t.Fatalf("unexpected figure: %+v", f.ID)
	}
	for _, s := range f.Series {
		if len(s.Results) == 0 {
			t.Fatalf("series %q empty", s.Label)
		}
	}
}
