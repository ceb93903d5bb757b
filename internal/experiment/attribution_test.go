package experiment

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"mindgap/internal/attr"
	"mindgap/internal/faults"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/internal/telemetry"
	"mindgap/internal/trace"
	"mindgap/scenarios"
)

// attrTestQuality keeps the attribution tests cheap enough to run under
// the race detector in short mode while still completing thousands of
// requests per point.
var attrTestQuality = Quality{Warmup: 300, Measure: 1500, Seed: 7}

// probeCase is one point of the lifecycle-probe contract test.
type probeCase struct {
	name string
	spec scenario.Spec
	rps  float64
	// drops lists the reasons a drop-producing spec must exercise.
	drops []trace.DropReason
	// measure overrides the default completion count (a fault window that
	// opens late needs a longer run).
	measure int
	// retries marks specs whose timeout machinery re-issues request IDs: a
	// slow original and its retry clone may both run to completion (the
	// client still sees one response), which single-life trace validation
	// rightly calls a double completion.
	retries bool
}

// probeSystemPoints names a checked-in preset series for every
// registered system, so the contract runs each model as the figures do.
var probeSystemPoints = map[string]struct {
	preset string
	series int
}{
	"offload": {"baselines", 0}, "shinjuku": {"baselines", 1}, "rss": {"baselines", 2},
	"zygos": {"baselines", 3}, "flowdir": {"baselines", 4}, "rpcvalet": {"baselines", 5},
	"erss": {"baselines", 6}, "idealnic": {"figure6-cxl", 0}, "flowrule": {"figure-flowrule", 1},
}

// presetCase is the contract point for one series of a checked-in preset,
// at rps or (0) the series' first load point.
func presetCase(t *testing.T, id string, series int, rps float64) probeCase {
	t.Helper()
	p := scenarios.MustLoad(id)
	sp := p.SpecFor(series)
	sp.Quality = nil
	if rps == 0 {
		loads, err := SpecLoads(sp)
		if err != nil || len(loads) == 0 {
			t.Fatalf("%s series %d: no load points (err %v)", id, series, err)
		}
		rps = loads[0]
	}
	return probeCase{name: id + "/" + p.Series[series].Label, spec: sp, rps: rps}
}

// systemCases returns one healthy 400 kRPS point per registered system.
func systemCases(t *testing.T) []probeCase {
	t.Helper()
	var cases []probeCase
	for _, b := range scenario.Systems() {
		pt, ok := probeSystemPoints[b.Name]
		if !ok {
			t.Errorf("no contract point for system %q — extend probeSystemPoints", b.Name)
			continue
		}
		c := presetCase(t, pt.preset, pt.series, 400_000)
		c.name = "system/" + b.Name
		cases = append(cases, c)
	}
	return cases
}

func probeCases(t *testing.T) []probeCase {
	t.Helper()
	var cases []probeCase
	for i := range scenarios.MustLoad("table-attribution").Series {
		cases = append(cases, presetCase(t, "table-attribution", i, 0))
	}
	cases = append(cases, systemCases(t)...)

	shed := presetCase(t, "baselines", 0, 1_500_000)
	shed.name, shed.drops = "drops/offload-admission-limit", []trace.DropReason{trace.DropShed}
	shed.spec.Knobs.AdmissionLimit = 8
	capped := presetCase(t, "baselines", 2, 1_500_000)
	capped.name, capped.drops = "drops/rss-queue-cap", []trace.DropReason{trace.DropQueueCap}
	capped.spec.Knobs.QueueCap = 4
	crash := presetCase(t, "figure-faults-niccrash", 1, 300_000)
	crash.name, crash.drops, crash.retries = "drops/figure-faults-niccrash", []trace.DropReason{trace.DropRingOverflow}, true
	crash.measure = 5000 // past the 10–14 ms crash window
	// No checked-in preset combines an ARM crash with fabric loss, so no
	// golden pins what happens to a degraded (hash-steered) frame an
	// injected wire fault eats: nothing retries it, and before the probe
	// spine the recorder never heard of it.
	lossy := presetCase(t, "figure-faults-niccrash", 1, 300_000)
	lossy.name, lossy.drops, lossy.retries = "drops/crash+loss", []trace.DropReason{trace.DropWireFault}, true
	lossy.spec.Faults = &faults.Spec{
		NICCrash: []faults.Window{{Start: faults.Duration(time.Millisecond), End: faults.Duration(3 * time.Millisecond)}},
		LinkLoss: []faults.Window{{Start: 0, End: faults.Duration(5 * time.Millisecond)}},
		LossRate: 0.3,
		Timeout:  faults.Duration(time.Millisecond),
		Retries:  1,
		Degrade:  true,
	}
	return append(cases, shed, capped, crash, lossy)
}

// TestAttributionObservationInvariance is the lifecycle-probe contract,
// run over every registered system, every attribution-table series and
// the drop-producing specs. Each point runs twice from identical
// configurations — bare, then with a tracer and a collector attached, plus
// a telemetry registry on Observable systems:
//
//   - the Result and the engine's executed-event count must be deeply
//     equal (a probe consumer that schedules an event or touches an RNG
//     stream shows here);
//   - the registry must hold exactly the gauges the benchmark reads
//     (registryKeys);
//   - every traced lifecycle must be causally valid;
//   - every completed request's phase vector must sum to exactly the
//     latency the client observed;
//   - the recorder, the trace and the collector — all fed by the same
//     probe call — must agree on drops and preemptions.
//
// Measurement starts at t=0 (no warm-up) so the recorder's window covers
// the same requests the trace and the collector see.
//
// The bare run of every case is also pinned across commits: its executed
// event count and full Result must match testdata/probe_points.golden, so
// a model refactor that adds, drops or reorders an event fails here and
// not only in the benchmark's exact counts. Regenerate (only for
// intentional model changes):
//
//	go test ./internal/experiment -run TestAttributionObservationInvariance -update
func TestAttributionObservationInvariance(t *testing.T) {
	q := Quality{Warmup: 0, Measure: 1500, Seed: 7}
	run := func(t *testing.T, c probeCase, o scenario.Options) (Result, uint64, map[uint64]time.Duration) {
		t.Helper()
		cfg, err := PointConfigFor(c.spec, q)
		if err != nil {
			t.Fatal(err)
		}
		cfg.OfferedRPS = c.rps
		if c.measure > 0 {
			cfg.Measure = c.measure
		}
		build := observed(c.spec, o)
		var eng *sim.Engine
		cfg.Factory = func(e *sim.Engine, rec *stats.Recorder, done func(*task.Request)) System {
			eng = e
			return build(e, rec, done)
		}
		lats := map[uint64]time.Duration{}
		res, _ := drive(cfg, func(r *task.Request, lat time.Duration) { lats[r.ID] = lat })
		return res, eng.Executed(), lats
	}
	var pinned bytes.Buffer
	for _, c := range probeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			bare, bareEvents, _ := run(t, c, scenario.Options{})
			fmt.Fprintf(&pinned, "%s events=%d %s\n", c.name, bareEvents, resultFields(bare))
			buf := trace.New(0)
			col := attr.New(attr.Config{KeepTimelines: true})
			opts := scenario.Options{Tracer: buf, Attr: col}
			if b, _ := scenario.Lookup(c.spec.System); b.Observable {
				opts.Metrics = telemetry.NewRegistry()
			}
			probed, events, lats := run(t, c, opts)

			if !reflect.DeepEqual(probed, bare) || events != bareEvents {
				t.Errorf("attaching observers changed the run\nwith:    %+v (%d events)\nwithout: %+v (%d events)",
					probed, events, bare, bareEvents)
			}
			if buf.Truncated() > 0 {
				t.Fatalf("trace buffer truncated %d events; the totals below would not be comparable", buf.Truncated())
			}
			if err := buf.ValidateAll(); err != nil && !c.retries {
				t.Errorf("trace: %v", err)
			}

			if col.Completed() == 0 || len(col.PhaseStats()) == 0 {
				t.Error("collector closed no records")
			}
			for _, tl := range col.Timelines() {
				var sum time.Duration
				for _, d := range tl.Phases {
					sum += d
				}
				if lat, ok := lats[tl.ReqID]; !ok || sum != lat || tl.Total != lat {
					t.Fatalf("req %d: phases sum to %v, collector total %v, client latency %v (observed: %v)",
						tl.ReqID, sum, tl.Total, lat, ok)
				}
			}

			if opts.Metrics != nil {
				var got []string
				for k := range opts.Metrics.Snapshot().Gauges {
					got = append(got, k)
				}
				sort.Strings(got)
				if want := registryKeys(c.spec); !slices.Equal(got, want) {
					t.Errorf("registry keys\n got %v\nwant %v", got, want)
				}
			}

			// Every model grades its steering decisions against the workers'
			// true backlogs; hash steering and flowrule's central slow-path
			// queue do so holding no estimate.
			audit := col.AuditSummary()
			if audit.Decisions == 0 {
				t.Errorf("%s audited no dispatch decisions", c.spec.System)
			}
			switch c.spec.System {
			case "rss", "zygos", "flowdir", "erss", "flowrule":
				if audit.Informed != 0 {
					t.Errorf("%s recorded %d informed decisions, want 0 (no load estimate)", c.spec.System, audit.Informed)
				}
			}

			var traceDrops, tracePreempts, attrDrops int64
			for _, e := range buf.Events() {
				switch e.Kind {
				case trace.Drop:
					traceDrops++
				case trace.Preempt:
					tracePreempts++
				}
			}
			for r := 0; r < trace.DropReasonCount; r++ {
				attrDrops += int64(col.DropCount(trace.DropReason(r)))
			}
			if probed.Dropped != traceDrops || probed.Dropped != attrDrops {
				t.Errorf("drop totals disagree: recorder %d, trace %d, collector %d", probed.Dropped, traceDrops, attrDrops)
			}
			if probed.Preemptions != tracePreempts {
				t.Errorf("preemptions disagree: recorder %d, trace %d", probed.Preemptions, tracePreempts)
			}
			for _, r := range c.drops {
				if col.DropCount(r) == 0 {
					t.Errorf("spec produced no %v drops; the case no longer exercises that path", r)
				}
			}
		})
	}

	const golden = "testdata/probe_points.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, pinned.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(pinned.Bytes(), want) {
		t.Errorf("bare runs diverged from %s\ngot:\n%swant:\n%s", golden, pinned.Bytes(), want)
	}
}

// registryKeys is the gauge set an Observable system registers: exactly
// the keys the benchmark ledger reads. An offload-family system exposes its
// scheduler's decision counters, the NIC's steered frames, the four ARM
// stages' processed items and every link's delivered messages (13 +
// workers keys); flowrule its rule table's packet split.
func registryKeys(sp scenario.Spec) []string {
	if sp.System == "flowrule" {
		return []string{"flowrule/drop_packets", "flowrule/fast_packets", "flowrule/slow_packets"}
	}
	keys := []string{"sched/assigned", "sched/scan_steps", "nic/steered"}
	for _, arm := range []string{"networker", "queue", "tx", "rx"} {
		keys = append(keys, "arm-"+arm+"/processed")
	}
	links := []string{"client→nic", "nic→client", "shm-net→q", "shm-q→tx", "shm-rx→q", "nic→arm"}
	for i := 0; i < sp.KnobsOrZero().Workers; i++ {
		links = append(links, fmt.Sprintf("nic→w%d", i))
	}
	for _, l := range links {
		keys = append(keys, "fabric/"+l+"/delivered")
	}
	sort.Strings(keys)
	return keys
}

// TestAttributionParallelismIndependent pins the determinism contract for
// the attribution table: per-point collectors are created inside each
// point run and never shared, so the full table must be deeply equal at
// -j1 and -j4 (CI runs this under -race, where sharing would also trip
// the detector).
func TestAttributionParallelismIndependent(t *testing.T) {
	run := func(par int) []AttributionRow {
		t.Helper()
		res, err := Run(context.Background(), &runner.Runner{Parallelism: par},
			scenarios.MustLoad("table-attribution"), attrTestQuality, Attributed)
		if err != nil {
			t.Fatal(err)
		}
		return Rows(res)
	}
	j1 := run(1)
	j4 := run(4)
	if !reflect.DeepEqual(j1, j4) {
		t.Errorf("attribution table differs between -j1 and -j4\nj1: %+v\nj4: %+v", j1, j4)
	}
	if len(j1) != 3 {
		t.Fatalf("attribution table has %d rows, want 3", len(j1))
	}
}

// TestAttributionHostQueueCollapse asserts the table's headline claim at
// test quality: the host-queue share of tail latency is strictly lower
// under informed offload than under blind RSS steering.
func TestAttributionHostQueueCollapse(t *testing.T) {
	res, err := Run(context.Background(), &runner.Runner{Parallelism: 4},
		scenarios.MustLoad("table-attribution"), attrTestQuality, Attributed)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AttributionRow{}
	for _, sr := range res {
		byLabel[sr.Label] = sr.Results[0]
	}
	off, ok := byLabel["shinjuku-offload"]
	if !ok {
		t.Fatal("missing shinjuku-offload row")
	}
	rss, ok := byLabel["rss"]
	if !ok {
		t.Fatal("missing rss row")
	}
	if off.HostQueueTailShare() >= rss.HostQueueTailShare() {
		t.Errorf("host-queue tail share: offload %.3f, rss %.3f — want offload strictly lower",
			off.HostQueueTailShare(), rss.HostQueueTailShare())
	}
	if off.Audit.Informed == 0 {
		t.Error("offload row recorded no informed decisions")
	}
	if rss.Audit.Informed != 0 {
		t.Errorf("rss row recorded %d informed decisions, want 0 (hash steering holds no estimate)",
			rss.Audit.Informed)
	}
}
