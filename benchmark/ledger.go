package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"mindgap/internal/experiment"
	"mindgap/internal/scenario"
	"mindgap/internal/telemetry"
	"mindgap/scenarios"
)

// ledger is one per-layer value of a traced run. Exact values are counts
// that are a pure function of (spec, seed): two runs must agree on them.
type ledger struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Exact bool    `json:"exact,omitempty"`
}

// ledgerDef declares one per-layer metric. The layer is the name's prefix.
type ledgerDef struct {
	Name, Unit, Better string
	Exact              bool
}

// profiledLayers are the packages whose in-situ CPU share is reported.
var profiledLayers = []string{"sim", "fabric", "nicmodel", "cores", "core", "loadgen"}

// mixNames are the systems_mix sub-points, the rows of the per-system split.
var mixNames = func() []string {
	var out []string
	for _, p := range systemsMixPoints() {
		out = append(out, p.Name)
	}
	return out
}()

// ledgerDefs lists every per-layer metric a traced run emits, in the order
// of README.md's interaction map.
var ledgerDefs = func() []ledgerDef {
	defs := []ledgerDef{
		{"sim.events_per_req", "count", "lower", true},
		{"sim.pending_highwater", "count", "lower", true},
		{"sim.ns_per_event_insitu", "ns", "lower", false},
		{"sim.schedule_fire_ns", "ns", "lower", false},
		{"sim.schedule_fire_wide_ns", "ns", "lower", false},
		{"sim.timer_arm_stop_ns", "ns", "lower", false},
		{"fabric.link_hop_ns", "ns", "lower", false},
		{"fabric.link_events_per_hop", "count", "lower", true},
		{"fabric.link_hop_queued_ns", "ns", "lower", false},
		{"fabric.stage_serve_ns", "ns", "lower", false},
		{"fabric.stage_events_per_item", "count", "lower", true},
		{"fabric.multistage_serve_ns", "ns", "lower", false},
		{"fabric.link_hops_per_req", "count", "lower", true},
		{"fabric.stage_items_per_req", "count", "lower", true},
		{"nicmodel.steer_ns", "ns", "lower", false},
		{"nicmodel.events_per_frame", "count", "lower", true},
		{"nicmodel.frames_per_req", "count", "lower", true},
		{"cores.run_ns", "ns", "lower", false},
		{"cores.events_per_run", "count", "lower", true},
		{"cores.preempt_resume_ns", "ns", "lower", false},
		{"cores.preemptions_per_req", "count", "lower", true},
		{"core.logic_cycle_ns_4w", "ns", "lower", false},
		{"core.logic_cycle_ns_16w", "ns", "lower", false},
		{"core.logic_scan_steps_per_assign", "count", "lower", true},
		{"core.sim_p99_us", "us", "lower", true},
		{"core.sim_achieved_rps", "1/s", "higher", true},
		{"flowrule.fast_hit_share", "%", "higher", true},
		{"flowrule.drop_share", "%", "lower", true},
		{"flowrule.sim_p99_us", "us", "lower", true},
		{"loadgen.tick_ns", "ns", "lower", false},
		{"loadgen.events_per_arrival", "count", "lower", true},
		{"loadgen.flow_tick_ns", "ns", "lower", false},
		{"dist.bimodal_sample_ns", "ns", "lower", false},
		{"task.pool_cycle_ns", "ns", "lower", false},
		{"queue.ring_cycle_ns", "ns", "lower", false},
		{"stats.hist_record_ns", "ns", "lower", false},
		{"stats.recorder_latency_ns", "ns", "lower", false},
		{"attr.overhead_ns_per_req", "ns", "lower", false},
		{"trace.overhead_ns_per_req", "ns", "lower", false},
		{"telemetry.overhead_ns_per_req", "ns", "lower", false},
		{"experiment.point_fixed_us", "us", "lower", false},
		{"experiment.allocs_per_req", "count", "lower", false},
		{"experiment.alloc_bytes_per_req", "B", "lower", false},
		{"experiment.rep_ns_per_req_p90", "ns", "lower", false},
		{"experiment.rep_ns_per_req_iqr", "ns", "lower", false},
		{"experiment.budget_coverage", "%", "higher", false},
		{"experiment.trace_overhead_pct", "%", "lower", false},
		{"runner.points_executed", "count", "lower", true},
		{"runner.parallel_speedup", "x", "higher", false},
		{"runner.cpu_over_wall", "x", "higher", false},
		{"runner.peak_rss_mb", "MB", "lower", false},
		{"runner.cache_warm_wall_s", "s", "lower", false},
		{"runner.dispatch_ns_per_point", "ns", "lower", false},
		{"hypothesis.corpus_wall_s", "s", "lower", false},
	}
	for _, layer := range profiledLayers {
		defs = append(defs, ledgerDef{layer + ".cpu_share", "%", "lower", false})
	}
	for _, name := range mixNames {
		defs = append(defs,
			ledgerDef{"systems." + name + ".ns_per_req", "ns", "lower", false},
			ledgerDef{"systems." + name + ".events_per_req", "count", "lower", true},
			ledgerDef{"systems." + name + ".allocs_per_req", "count", "lower", false},
		)
	}
	return defs
}()

// book collects a traced run's ledger values by name.
type book map[string]float64

// toLedger attaches units and exactness, and reports names never set.
func (b book) toLedger() (map[string]ledger, []string) {
	out := make(map[string]ledger, len(ledgerDefs))
	var missing []string
	for _, d := range ledgerDefs {
		v, ok := b[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = ledger{Unit: d.Unit, Value: v, Exact: d.Exact}
	}
	return out, missing
}

// insitu records the numbers read while the run's own workload executes:
// nsPerReq holds one sample per rep (per replayed point for grid_quick),
// and the MemStats pair brackets the requests simulated.
func (b book) insitu(nsPerReq []float64, eventsPerReq float64, highWat int, requests int64, ms0, ms1 *runtime.MemStats) {
	s := summarise("ns", nsPerReq)
	b["sim.events_per_req"] = eventsPerReq
	b["sim.pending_highwater"] = float64(highWat)
	b["sim.ns_per_event_insitu"] = s.Median / eventsPerReq
	b["experiment.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(requests)
	b["experiment.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(requests)
	b["experiment.rep_ns_per_req_p90"] = quantile(sortedCopy(nsPerReq), 0.9)
	b["experiment.rep_ns_per_req_iqr"] = s.Q3 - s.Q1
}

// quickQuality is what the CLI's -quality quick means; the grid replay
// re-simulates CLI rows in process with it.
var quickQuality = experiment.Quality{Warmup: 2_000, Measure: 12_000, Seed: 7}

// traceRun is the traced run of one workload. It is separate from the timed
// run and emits every per-layer metric:
//
//   - in situ, on the run's workload: events/request, pending high-water,
//     ns/event, allocations, rep spread, CPU share by package (pprof) and
//     the cost of tracing itself;
//   - on the fig2_offload point: op counts per request read from the
//     telemetry registry, the simulated headline, and the budget coverage;
//   - the micro-drivers of layers.go (workload-independent);
//   - the per-system split of systems_mix, the flow-rule shares and the
//     cost of each observer on attr_offload's spec;
//   - the runner ledger through the CLI: the full quick grid when the
//     workload is grid_quick (whose in-situ numbers come from it), one
//     figure of it otherwise.
func traceRun(w workloadDef, bin, outDir string, seed uint64, seconds float64) (*runResult, error) {
	res := &runResult{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: true}
	spans := newSpanLog()
	b := book{}
	var can canary
	can.burst(gridCanaryPasses)

	inProcess := len(w.Points) > 0
	if inProcess {
		if err := insituInProcess(res, b, spans, w, seed, seconds); err != nil {
			return nil, err
		}
	}
	if err := runnerLedger(res, b, spans, bin, outDir, !inProcess); err != nil {
		return nil, err
	}
	fig2NS, err := fig2Reference(res, b, seed)
	if err != nil {
		return nil, err
	}

	micro := spans.begin("micro-drivers", -1)
	for _, d := range microDefs {
		m := runMicro(d, spans, micro)
		b[d.NS] = m.NSPerOp
		if d.Events != "" {
			b[d.Events] = m.EventsPerOp
		}
	}
	spans.end(micro)

	if err := systemSplit(res, b, spans, seed); err != nil {
		return nil, err
	}
	if err := flowruleShares(res, b, seed); err != nil {
		return nil, err
	}
	if err := observerOverheads(res, b, spans, seed); err != nil {
		return nil, err
	}
	budgetCoverage(b, fig2NS)
	can.burst(gridCanaryPasses)
	res.noise(&can)

	var missing []string
	res.Ledger, missing = b.toLedger()
	for _, name := range missing {
		res.fail("per-layer metric %s was not measured", name)
	}
	res.SpanFile = filepath.Join(outDir, "spans-"+w.Name+".json")
	if err := spans.write(res.SpanFile); err != nil {
		return nil, err
	}
	return res, nil
}

// insituInProcess runs the workload untraced, then under the CPU profiler
// with the telemetry registry attached wherever the system accepts one.
func insituInProcess(res *runResult, b book, spans *spanLog, w workloadDef, seed uint64, seconds float64) error {
	pts, err := compilePoints(w.Points, seed)
	if err != nil {
		return err
	}
	runRep(pts, nil) // warm-up
	window := seconds / 4

	var ms0, ms1 runtime.MemStats
	var plain []float64
	var requests int64
	var last rep
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for start := time.Now(); len(plain) < minReps || time.Since(start).Seconds() < window; {
		last = runRep(pts, nil)
		res.account(last)
		requests += last.Requests
		plain = append(plain, float64(last.Wall.Nanoseconds())/float64(last.Requests))
	}
	runtime.ReadMemStats(&ms1)
	b.insitu(plain, float64(last.Events)/float64(last.Requests), last.HighWat, requests, &ms0, &ms1)

	// Traced reps: every point keeps the observers it is defined with and
	// gains the registry where its system is observable.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	probed := withRegistry(pts)
	var traced []float64
	for start := time.Now(); len(traced) < minReps || time.Since(start).Seconds() < window; {
		id := spans.begin(fmt.Sprintf("%s/%d", w.Name, len(traced)), -1)
		rp := runRep(probed, nil)
		spans.end(id)
		res.account(rp)
		traced = append(traced, float64(rp.Wall.Nanoseconds())/float64(rp.Requests))
	}
	pprof.StopCPUProfile()
	b["experiment.trace_overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	return cpuShares(res, b, prof.Bytes())
}

// withRegistry copies the points, adding the telemetry registry on every
// one whose system accepts it.
func withRegistry(pts []*point) []*point {
	probed := make([]*point, len(pts))
	for i, p := range pts {
		q := *p
		if b, ok := scenario.Lookup(p.spec.System); ok && b.Observable {
			q.Observers.Metrics = true
		}
		probed[i] = &q
	}
	return probed
}

// cpuShares folds a CPU profile into <layer>.cpu_share.
func cpuShares(res *runResult, b book, profile []byte) error {
	byPkg, total, err := cpuByPackage(profile)
	if err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("cpu profile holds no samples")
	}
	for _, layer := range profiledLayers {
		b[layer+".cpu_share"] = 100 * float64(byPkg["mindgap/internal/"+layer]) / float64(total)
	}
	res.ProfileNotes = append(res.ProfileNotes, topPackages(byPkg, total, 12)...)
	return nil
}

// runnerLedger drives the CLI: plain and profiled runs at -j N, a cold and
// a warm run against a cache directory, a -j 1 run, and the hypothesis
// corpus. On the full grid it also measures grid_quick in situ: the CLI's
// own -cpuprofile gives the CPU split, and an in-process replay of every
// eighth figure row gives the engine counts the CLI does not print.
func runnerLedger(res *runResult, b book, spans *spanLog, bin, outDir string, full bool) error {
	jobs := gridJobs()
	args := smallGridArgs
	if full {
		args = gridArgs
	}
	sec := spans.begin("runner-cli", -1)
	defer spans.end(sec)
	cli := func(name string, a ...string) (cliRun, error) {
		id := spans.begin(name, sec)
		r := runCLI(bin, a...)
		spans.end(id)
		res.Ops++
		if r.Err != nil {
			res.fail("mindgap-bench %s: %v", name, r.Err)
			return r, fmt.Errorf("mindgap-bench %s: %v\n%s", name, r.Err, r.Stderr)
		}
		return r, nil
	}
	cacheDir, err := os.MkdirTemp(outDir, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	profPath := filepath.Join(cacheDir, "cli.pprof")

	plain, err := cli("grid -jN", args(jobs)...)
	if err != nil {
		return err
	}
	profiled, err := cli("grid -jN -cpuprofile", append(args(jobs), "-cpuprofile", profPath)...)
	if err != nil {
		return err
	}
	cold, err := cli("grid -jN -cache (cold)", append(args(jobs), "-cache", filepath.Join(cacheDir, "c"))...)
	if err != nil {
		return err
	}
	warm, err := cli("grid -jN -cache (warm)", append(args(jobs), "-cache", filepath.Join(cacheDir, "c"))...)
	if err != nil {
		return err
	}
	serial, err := cli("grid -j1", args(1)...)
	if err != nil {
		return err
	}
	hyp, err := cli("hypothesis corpus", "-hypothesis", "all", "-quality", "quick", "-j", strconv.Itoa(jobs))
	if err != nil {
		return err
	}
	want := hashBytes(plain.Stdout)
	for _, r := range []cliRun{profiled, cold, warm, serial} {
		if hashBytes(r.Stdout) != want {
			res.fail("mindgap-bench output differs between -j, -cache or -cpuprofile runs")
		}
	}
	misses := regexp.MustCompile(`(\d+) hits, (\d+) misses`).FindSubmatch(cold.Stderr)
	if misses == nil {
		return fmt.Errorf("mindgap-bench -cache printed no hit/miss line:\n%s", cold.Stderr)
	}
	executed, _ := strconv.Atoi(string(misses[2]))
	b["runner.points_executed"] = float64(executed)
	b["runner.parallel_speedup"] = serial.Wall.Seconds() / plain.Wall.Seconds()
	b["runner.cpu_over_wall"] = plain.CPU / plain.Wall.Seconds()
	b["runner.peak_rss_mb"] = plain.MaxRSSMB
	b["runner.cache_warm_wall_s"] = warm.Wall.Seconds()
	b["hypothesis.corpus_wall_s"] = hyp.Wall.Seconds()

	if !full {
		return nil
	}
	if res.SimDigest == "" {
		res.SimDigest = want
	}
	b["experiment.trace_overhead_pct"] = 100 * (profiled.Wall.Seconds() - plain.Wall.Seconds()) / plain.Wall.Seconds()
	profile, err := os.ReadFile(profPath)
	if err != nil {
		return err
	}
	if err := cpuShares(res, b, profile); err != nil {
		return err
	}
	return replayGrid(res, b, spans, parseGridCSV(plain.Stdout))
}

// replayEvery is the stride of the grid replay sample.
const replayEvery = 8

// replayGrid re-simulates every replayEvery-th figure row of the CLI's
// output in process, checks that each reproduces the CLI's completed count
// and p99, and reads the engine counts the CLI does not print.
func replayGrid(res *runResult, b book, spans *spanLog, rows []csvRow) error {
	sec := spans.begin("grid-replay", -1)
	defer spans.end(sec)
	presets := map[string]scenario.Preset{}
	var events uint64
	var requests int64
	var highWat int
	var perPoint []float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < len(rows); i += replayEvery {
		row := rows[i]
		p, ok := presets[row.Figure]
		if !ok {
			var err error
			if p, err = scenarios.Load(row.Figure); err != nil {
				return fmt.Errorf("grid replay: %w", err)
			}
			presets[row.Figure] = p
		}
		pt, err := replayPoint(p, row)
		if err != nil {
			return fmt.Errorf("grid replay: %w", err)
		}
		id := spans.begin(fmt.Sprintf("grid_quick/%s/%s/%g", row.Figure, row.Series, row.X), sec)
		pr := pt.run(observers{})
		spans.end(id)
		res.Ops++
		switch {
		case pr.Res.Completed != row.Completed || int64(pr.Res.P99) != row.P99 || pr.Res.Preemptions != row.Preemptions:
			res.fail("%s %q x=%g: CLI row (completed %d, p99 %d) differs from in-process replay (completed %d, p99 %d)",
				row.Figure, row.Series, row.X, row.Completed, row.P99, pr.Res.Completed, int64(pr.Res.P99))
		case pr.Res.Completed+pr.Res.Dropped > pr.Injected:
			res.fail("%s %q x=%g: completed + dropped exceeds injected", row.Figure, row.Series, row.X)
		}
		events += pr.Events
		requests += pr.Requests
		if pr.HighWat > highWat {
			highWat = pr.HighWat
		}
		perPoint = append(perPoint, float64(pr.Wall.Nanoseconds())/float64(pr.Requests))
	}
	runtime.ReadMemStats(&ms1)
	if requests == 0 {
		return fmt.Errorf("grid replay: no rows to replay")
	}
	b.insitu(perPoint, float64(events)/float64(requests), highWat, requests, &ms0, &ms1)
	return nil
}

// replayPoint compiles the spec behind one CSV row: the series is found by
// label, and x is the offered rate, the outstanding limit (k sweeps) or the
// flow population (flow sweeps).
func replayPoint(p scenario.Preset, row csvRow) (*point, error) {
	for i := range p.Series {
		if p.Series[i].Label != row.Series {
			continue
		}
		sp := p.SpecFor(i)
		rps := row.X
		switch {
		case sp.Load != nil && sp.Load.KSweep != nil:
			sp, rps = sp.WithOutstanding(int(row.X)), sp.Load.RPS
		case sp.Load != nil && sp.Load.FSweep != nil:
			sp, rps = sp.WithFlows(int(row.X)), sp.Load.RPS
		}
		cfg, err := experiment.PointConfigFor(sp, quickQuality)
		if err != nil {
			return nil, err
		}
		cfg.OfferedRPS = rps
		return &point{pointDef: pointDef{Name: row.Series, Preset: p.ID, Series: i, RPS: rps}, spec: sp, cfg: cfg}, nil
	}
	return nil, fmt.Errorf("preset %q has no series %q", p.ID, row.Series)
}

// fig2Reference reads the op counts of the fig2_offload point from the
// telemetry registry and returns its bare ns/request, for the budget
// coverage.
func fig2Reference(res *runResult, b book, seed uint64) (nsPerReq float64, err error) {
	def, _ := findWorkload("fig2_offload")
	pts, err := compilePoints(def.Points, seed)
	if err != nil {
		return 0, err
	}
	var ns []float64
	for i := 0; i < 3; i++ {
		rp := runRep(pts, nil)
		res.countOps(rp)
		ns = append(ns, float64(rp.Wall.Nanoseconds())/float64(rp.Requests))
	}
	rp := runRep(pts, &observers{Metrics: true})
	res.countOps(rp)
	pr := rp.Runs[0]
	if pr.Snapshot == nil {
		return 0, fmt.Errorf("fig2_offload: no telemetry snapshot")
	}
	req := float64(pr.Requests)
	b["fabric.link_hops_per_req"] = gaugeSum(pr.Snapshot, "fabric/", "/delivered") / req
	b["fabric.stage_items_per_req"] = gaugeSum(pr.Snapshot, "arm-", "/processed") / req
	b["nicmodel.frames_per_req"] = pr.Snapshot.Gauges["nic/steered"] / req
	b["core.logic_scan_steps_per_assign"] = pr.Snapshot.Gauges["sched/scan_steps"] / pr.Snapshot.Gauges["sched/assigned"]
	b["cores.preemptions_per_req"] = float64(pr.Res.Preemptions) / float64(pr.Res.Completed)
	b["core.sim_p99_us"] = float64(pr.Res.P99) / 1e3
	b["core.sim_achieved_rps"] = pr.Res.AchievedRPS

	// The fixed cost of a point: the same spec asked for one completion.
	one := def.Points[0]
	one.Warmup, one.Measure = 0, 1
	tiny, err := compilePoint(one, seed)
	if err != nil {
		return 0, err
	}
	var fixed []float64
	for i := 0; i < 200; i++ {
		fixed = append(fixed, float64(tiny.run(observers{}).Wall.Nanoseconds())/1e3)
	}
	b["experiment.point_fixed_us"] = median(fixed)
	return median(ns), nil
}

// gaugeSum adds the gauges whose key has the given prefix and suffix, in
// sorted key order.
func gaugeSum(s *telemetry.Snapshot, prefix, suffix string) float64 {
	keys := make([]string, 0, len(s.Gauges))
	for k := range s.Gauges {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += s.Gauges[k]
	}
	return sum
}

// splitReps is how many times the fixed-scope splits run each point.
const splitReps = 3

// systemSplit times each systems_mix sub-point on its own.
func systemSplit(res *runResult, b book, spans *spanLog, seed uint64) error {
	pts, err := compilePoints(systemsMixPoints(), seed)
	if err != nil {
		return err
	}
	sec := spans.begin("systems-split", -1)
	defer spans.end(sec)
	for _, p := range pts {
		one := []*point{p}
		var ns []float64
		var requests int64
		var last rep
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		id := spans.begin("systems."+p.Name, sec)
		for i := 0; i < splitReps; i++ {
			last = runRep(one, nil)
			res.countOps(last)
			requests += last.Requests
			ns = append(ns, float64(last.Wall.Nanoseconds())/float64(last.Requests))
		}
		spans.end(id)
		runtime.ReadMemStats(&ms1)
		b["systems."+p.Name+".ns_per_req"] = median(ns)
		b["systems."+p.Name+".events_per_req"] = float64(last.Events) / float64(last.Requests)
		b["systems."+p.Name+".allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(requests)
	}
	return nil
}

// flowruleShares reads the rule table's packet split on flowrule_4k.
func flowruleShares(res *runResult, b book, seed uint64) error {
	def, _ := findWorkload("flowrule_4k")
	pts, err := compilePoints(def.Points, seed)
	if err != nil {
		return err
	}
	rp := runRep(pts, &observers{Metrics: true})
	res.countOps(rp)
	pr := rp.Runs[0]
	if pr.Snapshot == nil {
		return fmt.Errorf("flowrule_4k: no telemetry snapshot")
	}
	g := pr.Snapshot.Gauges
	fast, slow, drop := g["flowrule/fast_packets"], g["flowrule/slow_packets"], g["flowrule/drop_packets"]
	total := fast + slow + drop
	if total == 0 {
		return fmt.Errorf("flowrule_4k: rule table saw no packets")
	}
	b["flowrule.fast_hit_share"] = 100 * fast / total
	b["flowrule.drop_share"] = 100 * drop / total
	b["flowrule.sim_p99_us"] = float64(pr.Res.P99) / 1e3
	return nil
}

// observerRounds and observerMeasure size the observer comparison: many
// short interleaved rounds, because the box's speed drifts over seconds and
// the overheads are small differences of large numbers.
const (
	observerRounds  = 9
	observerMeasure = 20_000
)

// observerOverheads times attr_offload's spec with exactly one observer
// attached, against the same spec with none: the median over rounds of the
// within-round difference.
func observerOverheads(res *runResult, b book, spans *spanLog, seed uint64) error {
	def, _ := findWorkload("attr_offload")
	small := def.Points[0]
	small.Measure = observerMeasure
	p, err := compilePoint(small, seed)
	if err != nil {
		return err
	}
	pts := []*point{p}
	variants := []struct {
		name string
		obs  observers
	}{
		{"none", observers{}},
		{"attr", observers{Attr: true}},
		{"trace", observers{Trace: true}},
		{"telemetry", observers{Metrics: true}},
	}
	sec := spans.begin("observer-overheads", -1)
	defer spans.end(sec)
	extra := make([][]float64, len(variants))
	for i := 0; i < observerRounds; i++ {
		var base float64
		for v := range variants {
			id := spans.begin("observers."+variants[v].name, sec)
			rp := runRep(pts, &variants[v].obs)
			spans.end(id)
			res.countOps(rp)
			ns := float64(rp.Wall.Nanoseconds()) / float64(rp.Requests)
			if v == 0 {
				base = ns
			}
			extra[v] = append(extra[v], ns-base)
		}
	}
	for v := 1; v < len(variants); v++ {
		b[variants[v].name+".overhead_ns_per_req"] = median(extra[v])
	}
	return nil
}

// budgetCoverage is the share of fig2_offload's ns/request that the
// micro-drivers account for: each layer's ns/op times its ops/request.
func budgetCoverage(b book, fig2NS float64) {
	hops := b["fabric.link_hops_per_req"] - b["nicmodel.frames_per_req"] // NIC-internal hops are inside steer_ns
	sum := b["loadgen.tick_ns"] +
		hops*b["fabric.link_hop_ns"] +
		b["nicmodel.frames_per_req"]*b["nicmodel.steer_ns"] +
		b["fabric.stage_items_per_req"]*b["fabric.stage_serve_ns"] +
		b["core.logic_cycle_ns_4w"] +
		b["cores.run_ns"] + b["cores.preemptions_per_req"]*b["cores.preempt_resume_ns"] +
		b["task.pool_cycle_ns"] + b["stats.recorder_latency_ns"]
	b["experiment.budget_coverage"] = 100 * sum / fig2NS
}
