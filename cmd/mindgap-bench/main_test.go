package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mindgap/internal/experiment"
	"mindgap/internal/runner"
	"mindgap/scenarios"
)

var update = flag.Bool("update", false, "rewrite testdata/grid.golden from the current model")

// TestGridGolden pins the quick grid's stdout, every figure and table the
// command prints, byte for byte: at -j 1 and at -j 4 it must equal
// testdata/grid.golden, which CI also compares with the CLI's stdout, and
// the runner must measure the 314 points the grid keeps once each. At
// -j 1 a slot frees only when nothing is in flight, so no point a
// saturation cut may prune is started; at -j 4 a free slot may start one
// when every sweep waits on its in-flight points, and each such run is
// pruned after start. A model change re-bases the golden on purpose (git
// diff names the rows that moved):
//
//	go test ./cmd/mindgap-bench -run TestGridGolden -update
func TestGridGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick grid twice")
	}
	const path = "testdata/grid.golden"
	for _, j := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"mindgap-bench", "-quality", "quick", "-csv", "-j", j}, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d, stderr %q", j, code, stderr.String())
		}
		if *update && j == "1" {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want, err := os.ReadFile(path); err != nil || !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("-j %s: stdout differs from %s (%v); -update rewrites it, git diff names the rows", j, path, err)
		}
		var st runner.Stats
		_, line, _ := strings.Cut(stderr.String(), "mindgap-bench: runner: ")
		if _, err := fmt.Sscanf(line, "{Ran:%d Memo:%d Disk:%d PrunedBeforeStart:%d PrunedAfterStart:%d Twins:%d}",
			&st.Ran, &st.Memo, &st.Disk, &st.PrunedBeforeStart, &st.PrunedAfterStart, &st.Twins); err != nil {
			t.Fatalf("-j %s: runner line %q: %v", j, line, err)
		}
		if j == "1" && (st.Ran != 314 || st.PrunedAfterStart != 0) || st.Ran < 314 || st.Ran > 314+st.PrunedAfterStart {
			t.Errorf("-j %s: runner %+v, want the 314 kept points run once each", j, st)
		}
	}
}

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

// TestErrorExitFlushesCPUProfile: a run that fails after profiling started
// (here the cache directory cannot be created) still stops the profiler
// and leaves a complete, gzip-framed profile behind.
func TestErrorExitFlushesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"mindgap-bench", "-cpuprofile", prof, "-cache", filepath.Join(notADir, "cache"), "-table", "timer"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("unusable -cache: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("CPU profile after an error exit holds %d bytes and no gzip header: the profiler was never stopped", len(b))
	}
}

// TestFlowRuleFigureAndTableShareOneRun pins the X14 arrangement: the
// figure the CLI prints is byte for byte what a Plain run of the preset
// renders, yet it is measured as detail rows under the detail rows' cache
// keys — so the table that follows finds every point already measured.
func TestFlowRuleFigureAndTableShareOneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the checked-in flow-rule preset twice")
	}
	cache := t.TempDir()
	var fig, table, stderr bytes.Buffer
	if code := run([]string{"mindgap-bench", "-fig", "flowrule", "-quality", "quick", "-csv", "-cache", cache}, &fig, &stderr); code != 0 {
		t.Fatalf("-fig flowrule: exit %d, stderr %q", code, stderr.String())
	}
	entry, err := pick(experiment.FigureIDs, "figure", "flowrule", false)
	if err != nil {
		t.Fatal(err)
	}
	p := scenarios.MustLoad(entry[0].Source)
	res, err := experiment.Run(context.Background(), nil, p, experiment.Quick, experiment.Plain)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiment.NewFigure(p, res).WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fig.Bytes(), want.Bytes()) {
		t.Fatalf("-fig flowrule -csv:\n%s\nPlain run renders:\n%s", fig.Bytes(), want.Bytes())
	}
	stderr.Reset()
	if code := run([]string{"mindgap-bench", "-table", "flowrule", "-quality", "quick", "-cache", cache}, &table, &stderr); code != 0 {
		t.Fatalf("-table flowrule: exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), ": 20 hits, 0 misses") {
		t.Fatalf("-table flowrule after -fig flowrule re-measured points: %q", stderr.String())
	}
	if n := strings.Count(table.String(), "\n"); n != 23 {
		t.Fatalf("-table flowrule printed %d lines, want header + 20 rows + blank:\n%s", n, table.String())
	}
}

// TestFigureAndTableTogether: -fig and -table given together run both,
// the figure first, and stdout — with every wall time on stderr — is
// byte-identical at any parallelism.
func TestFigureAndTableTogether(t *testing.T) {
	if testing.Short() {
		t.Skip("runs figure 2 and the ipc table three times")
	}
	var outs [3]string
	for i, j := range []string{"1", "2", "4"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"mindgap-bench", "-fig", "2", "-table", "ipc", "-quality", "quick", "-j", j}, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d, stderr %q", j, code, stderr.String())
		}
		outs[i] = stdout.String()
	}
	fig, table := strings.Index(outs[0], "== figure2:"), strings.Index(outs[0], "== T2:")
	if fig != 0 || table < 0 {
		t.Fatalf("want the figure 2 block, then the ipc table:\n%s", outs[0])
	}
	for i, j := range []string{"2", "4"} {
		if outs[0] != outs[i+1] {
			t.Fatalf("stdout differs between -j 1 and -j %s:\n-- j1 --\n%s\n-- j%s --\n%s", j, outs[0], j, outs[i+1])
		}
	}
}

// TestTimeoutPrintsPrefix: a run cut short by -timeout exits 1 and prints
// a byte prefix of the full run's stdout — the parts that finished, in
// order, and nothing of the part the deadline interrupted.
func TestTimeoutPrintsPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hypothesis corpus")
	}
	args := []string{"mindgap-bench", "-hypothesis", "all", "-quality", "quick", "-j", "2"}
	var full, stderr bytes.Buffer
	if code := run(args, &full, &stderr); code != 0 {
		t.Fatalf("full run: exit %d, stderr %q", code, stderr.String())
	}
	for _, timeout := range []string{"1ms", "300ms"} {
		var part bytes.Buffer
		stderr.Reset()
		code := run(append(args, "-timeout", timeout), &part, &stderr)
		if !bytes.HasPrefix(full.Bytes(), part.Bytes()) {
			t.Fatalf("-timeout %s: stdout is not a prefix of the full run's:\n%s", timeout, part.Bytes())
		}
		if code != 1 && part.Len() != full.Len() {
			t.Fatalf("-timeout %s: exit %d with a partial stdout", timeout, code)
		}
		if code == 1 && !strings.Contains(stderr.String(), "deadline exceeded") {
			t.Fatalf("-timeout %s: stderr does not name the deadline: %q", timeout, stderr.String())
		}
	}
}

// TestFigureRegistryComplete: every -fig entry names a preset that loads,
// and the paper's eight figures are all registered.
func TestFigureRegistryComplete(t *testing.T) {
	sources := map[string]bool{}
	for _, f := range experiment.FigureIDs {
		sources[f.Source] = true
		if _, err := scenarios.Load(f.Source); err != nil {
			t.Errorf("-fig %s: %v", f.ID, err)
		}
	}
	for _, want := range []string{"figure2", "figure3", "figure4", "figure5", "figure6",
		"figure-faults-niccrash", "figure-faults-lossyfabric", "figure-flowrule"} {
		if !sources[want] {
			t.Errorf("paper figure %q missing from experiment.FigureIDs", want)
		}
	}
}
