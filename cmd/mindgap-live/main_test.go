package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestLoopback runs all three roles in one process and checks the client's
// table against the registry totals printed at exit.
func TestLoopback(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"mindgap-live", "loopback", "-workers", "2", "-n", "300", "-rps", "1000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(strings.TrimSpace(lines[0]), "offered") {
		t.Fatalf("no latency table:\n%s", &stdout)
	}
	row := strings.Fields(lines[1])
	if len(row) < 3 || row[1] != "300" || row[2] != row[1] {
		t.Fatalf("want 300 sent and received, got row %q", lines[1])
	}
	received, _ := strconv.ParseFloat(row[2], 64)
	gauges := map[string]float64{}
	for _, l := range lines[2:] {
		if k, v, ok := strings.Cut(l, " "); ok {
			gauges[k], _ = strconv.ParseFloat(v, 64)
		}
	}
	if got := gauges["dispatcher/completed"]; got != received {
		t.Errorf("dispatcher/completed = %g, client received %g\n%s", got, received, &stdout)
	}
	if got := gauges["worker0/completed"] + gauges["worker1/completed"]; got != received {
		t.Errorf("workers completed %g, client received %g\n%s", got, received, &stdout)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"bogus"},
		{"client", "-slice", "1ms"},    // another role's flag
		{"dispatcher", "-rps", "1000"}, // another role's flag
		{"worker", "-n", "2"},          // the worker count is -workers
		{"dispatcher", "-policy", "informed-least-loaded"},
		{"-policy", "informed-least-loaded"},
		{"-policy", "fastest"},
		{"client", "-sweep", "1000,x"},
		{"client", "-sweep", "1000,-5"},
		{"client", "-dist", "uniform"},
		{"client", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"mindgap-live"}, args...), &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2\nstderr: %s", args, code, &stderr)
		} else if stderr.Len() == 0 {
			t.Errorf("%q: exit 2 with nothing on stderr", args)
		}
	}
}
