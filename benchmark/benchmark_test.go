package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// The names the harness emits are the names BENCHMARK.json declares, with
// the same units, directions and bounds.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	cfg := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(cfg.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(cfg.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is not a legal name", w.Name)
		}
		if cfg.Workloads[i].Name != w.Name || cfg.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q / %q", i, cfg.Workloads[i], w.Name, w.Why)
		}
	}

	if len(cfg.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(cfg.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		m := cfg.EndToEnd[i]
		if !name.MatchString(d.Name) || m.Name != d.Name || m.Unit != d.Unit || m.Better != "lower" || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}

	if len(cfg.PerLayer) != len(ledgerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(cfg.PerLayer), len(ledgerDefs))
	}
	seen := map[string]bool{}
	for i, d := range ledgerDefs {
		m := cfg.PerLayer[i]
		if !name.MatchString(d.Name) || seen[d.Name] || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		seen[d.Name] = true
	}
	for _, d := range microDefs {
		if !seen[d.NS] || (d.Events != "" && !seen[d.Events]) {
			t.Errorf("micro-driver %s/%s is not a declared per-layer metric", d.NS, d.Events)
		}
	}
}

// shrunk compiles a workload's points at test size.
func shrunk(t *testing.T, w workloadDef, seed uint64) []*point {
	t.Helper()
	defs := append([]pointDef(nil), w.Points...)
	for i := range defs {
		defs[i].Warmup, defs[i].Measure = 100, 500
	}
	pts, err := compilePoints(defs, seed)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return pts
}

// Every workload builds; a rep is deterministic under one seed, with the
// workload's own observers and with none, and differs under another seed.
func TestWorkloadsBuildAndRepeat(t *testing.T) {
	for _, w := range workloadDefs {
		if len(w.Points) == 0 {
			continue // grid_quick runs the CLI; its stdout hash is checked per rep
		}
		pts := shrunk(t, w, 7)
		a, b := runRep(pts, nil), runRep(pts, nil)
		bare := runRep(pts, &observers{})
		other := runRep(shrunk(t, w, 8), nil)
		var res runResult
		res.account(a)
		res.account(b)
		if res.OpsFailed != 0 || res.Ops != 2*len(w.Points) {
			t.Errorf("%s: ops %d, failed %d: %v", w.Name, res.Ops, res.OpsFailed, res.Failures)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: sim_digest %s then %s under one seed", w.Name, a.Digest, b.Digest)
		}
		if a.Digest != bare.Digest {
			t.Errorf("%s: observers changed the simulation: %s with, %s without", w.Name, a.Digest, bare.Digest)
		}
		if a.Digest == other.Digest {
			t.Errorf("%s: sim_digest %s under seeds 7 and 8 alike", w.Name, a.Digest)
		}
		if a.Events == 0 || a.HighWat == 0 || a.Requests != int64(600*len(w.Points)) {
			t.Errorf("%s: events %d, high-water %d, requests %d", w.Name, a.Events, a.HighWat, a.Requests)
		}
	}
}

// A point the watchdog truncates is a failed op, not a fast one.
func TestTruncatedPointFails(t *testing.T) {
	w, _ := findWorkload("fig2_offload")
	pts := shrunk(t, w, 7)
	pts[0].cfg.MaxSimTime = time.Microsecond
	var res runResult
	res.account(runRep(pts, nil))
	if res.Ops != 1 || res.OpsFailed != 1 {
		t.Fatalf("ops %d, failed %d; want 1 and 1", res.Ops, res.OpsFailed)
	}
}

// frozenSurface is every simulator package the benchmark may import. Later
// changes may not edit benchmark/, so whatever it imports stays as it is
// until a later benchmark issue; keep the list short.
var frozenSurface = map[string]bool{
	"mindgap/scenarios":           true,
	"mindgap/internal/scenario":   true,
	"mindgap/internal/experiment": true,
	"mindgap/internal/sim":        true,
	"mindgap/internal/fabric":     true,
	"mindgap/internal/nicmodel":   true,
	"mindgap/internal/cores":      true,
	"mindgap/internal/core":       true,
	"mindgap/internal/loadgen":    true,
	"mindgap/internal/task":       true,
	"mindgap/internal/queue":      true,
	"mindgap/internal/dist":       true,
	"mindgap/internal/stats":      true,
	"mindgap/internal/runner":     true,
	"mindgap/internal/attr":       true,
	"mindgap/internal/trace":      true,
	"mindgap/internal/telemetry":  true,
}

func TestImportsStayOnFrozenSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "mindgap/") && !frozenSurface[path] {
				t.Errorf("%s imports %s, which is outside the frozen surface", f, path)
			}
		}
	}
}

func TestGridCSVRows(t *testing.T) {
	out := "figure,series,x,achieved_rps,p50_ns,p99_ns,mean_ns,max_ns,completed,dropped,preemptions,idle_frac,saturated\n" +
		`figure2,"offload (4 workers, k=4)",50000,50037.6,20223,20735,20811,193138,12000,0,513,0.93,false` + "\n" +
		"== T1: timer costs, not, a, csv, row\n"
	rows := parseGridCSV([]byte(out))
	if len(rows) != 1 || rows[0].Series != "offload (4 workers, k=4)" || rows[0].X != 50000 ||
		rows[0].P99 != 20735 || rows[0].Completed != 12000 || rows[0].Preemptions != 513 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestPackageOf(t *testing.T) {
	for symbol, want := range map[string]string{
		"mindgap/internal/sim.(*Engine).Step":                             "mindgap/internal/sim",
		"mindgap/internal/fabric.(*Stage[go.shape.*uint8]).Submit":        "mindgap/internal/fabric",
		"mindgap/internal/fabric.stageServed[go.shape.*mindgap/x/task.R]": "mindgap/internal/fabric",
		"runtime.mallocgc": "runtime",
		"mindgap/internal/systems/flowrule.(*System).classify": "mindgap/internal/systems/flowrule",
		"aeshashbody": "aeshashbody",
	} {
		if got := packageOf(symbol); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", symbol, got, want)
		}
	}
}

// The in-tree pprof decoder reads what runtime/pprof writes.
func TestCPUProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var can canary
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		can.pass()
	}
	pprof.StopCPUProfile()
	byPkg, total, err := cpuByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total > 0 && byPkg["main"]+byPkg["mindgap/benchmark"] == 0 {
		t.Errorf("no samples in the canary's package: %v", byPkg)
	}
}

// Spread is judged with the quartiles Python's statistics.quantiles gives.
func TestQuartilesExclusive(t *testing.T) {
	q1, q3 := quartilesExclusive([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(ns, q1, q3 float64, noisy bool) string {
		r := runResult{Workload: "fig2_offload", Seed: 7, Noisy: noisy, SimDigest: "d",
			Metrics: map[string]stat{"ns_per_req": {Unit: "ns", Reps: 50, Median: ns, Q1: q1, Q3: q3}}}
		b, _ := json.Marshal(r)
		return string(b) + "\n"
	}
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("noise\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a", run(1000, 990, 1010, false))
	for _, c := range []struct {
		name, body, want string
		code             int
	}{
		{"same", run(1005, 995, 1015, false), "ns_per_req within", 0},
		{"slow", run(1300, 1290, 1310, false), "ns_per_req REGRESSED", 1},
		{"wide", run(1300, 1000, 1600, false), "ns_per_req unresolved ", 0},
		{"noisy", run(1300, 1290, 1310, true), "ns_per_req unresolved(noisy)", 0},
	} {
		var out bytes.Buffer
		code := compareFiles(&out, base, write(c.name, c.body))
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, output %q; want exit %d and %q", c.name, code, out.String(), c.code, c.want)
		}
	}
}
