package main

import (
	"bytes"
	"strings"
	"testing"

	"mindgap/internal/experiment"
)

// TestUnknownIDsRejected pins the flag contract: an id outside the
// registry prints nothing to stdout, names the valid ids on stderr and
// exits 2 — for tables as for figures.
func TestUnknownIDsRejected(t *testing.T) {
	for _, tc := range []struct {
		flag string
		reg  []experiment.Entry
	}{
		{"-fig", experiment.FigureIDs},
		{"-table", experiment.TableIDs},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"mindgap-bench", tc.flag, "bogus", "-quality", "quick"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%s bogus: exit %d, want 2", tc.flag, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s bogus: wrote to stdout: %q", tc.flag, stdout.String())
		}
		if !strings.Contains(stderr.String(), `"bogus"`) || !strings.Contains(stderr.String(), idList(tc.reg)) {
			t.Errorf("%s bogus: stderr does not name the id and the valid list: %q", tc.flag, stderr.String())
		}
	}
}

// TestKnownTableRuns checks the other side: a registry id is accepted.
// The analytic timer table needs no simulation.
func TestKnownTableRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"mindgap-bench", "-table", "timer"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-table timer: exit %d, stderr %q", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "== T1:") {
		t.Fatalf("-table timer: unexpected output %q", stdout.String())
	}
}
