package experiment

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mindgap/internal/faults"
	"mindgap/internal/scenario"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/scenarios"
)

// faultQuality is small on purpose: the properties under test are
// byte-identity and equality with a healthy run, not statistical
// convergence, so a few thousand completions per point suffice.
var faultQuality = Quality{Warmup: 300, Measure: 2000, Seed: 7}

// TestFaultPresetsDeterministic is the reproducibility gate for the fault
// layer: a faulted sweep must be byte-identical across runner parallelism
// (-j1 vs -j4) and across GOMAXPROCS settings, because every source of
// fault randomness is a per-instance stream compiled from the scenario
// seed. This test deliberately has no -short skip — CI runs it under
// -race, where a shared Schedule between concurrently simulated points
// would also surface as a data race.
func TestFaultPresetsDeterministic(t *testing.T) {
	for _, name := range FaultPresetIDs() {
		p := scenarios.MustLoad(name)
		t.Run(name, func(t *testing.T) {
			serial := renderFigure(t, p, faultQuality, 1)
			if len(serial) == 0 {
				t.Fatal("empty render")
			}
			for _, j := range []int{2, 4} {
				if got := renderFigure(t, p, faultQuality, j); !bytes.Equal(got, serial) {
					t.Fatalf("-j%d output differs from -j1:\n%s\nvs\n%s", j, got, serial)
				}
			}
			old := runtime.GOMAXPROCS(1)
			single := renderFigure(t, p, faultQuality, 4)
			runtime.GOMAXPROCS(old)
			if !bytes.Equal(single, serial) {
				t.Fatalf("GOMAXPROCS=1 output differs:\n%s\nvs\n%s", single, serial)
			}
		})
	}
}

// TestInertFaultScheduleIsHealthy is the relation behind "fault hooks are
// free". An empty block cannot be built (Spec.Validate refuses it), so each
// class of schedule is made inert instead: its windows open after an hour,
// long past the point's end, and a 1 s timeout never expires. One load
// point of every offload series of every non-fault preset runs healthy and
// under each class, audited at halt. Crash+degrade, slow and
// timeout+retries file no events of their own and must reproduce the
// healthy Result and Engine.Executed(). Stall puts the host kit on the
// event chain and a LinkFault lands frames by event: those classes run
// more events, and where events meet at one instant the new order can move
// the point. That is logged, not asserted away.
func TestInertFaultScheduleIsHealthy(t *testing.T) {
	later := []faults.Window{{Start: faults.Duration(time.Hour), End: faults.Duration(2 * time.Hour)}}
	timeout, extra := faults.Duration(time.Second), faults.Duration(20*time.Microsecond)
	all := faults.Spec{NICCrash: later, Degrade: true, NICSlow: later, NICSlowFactor: 0.5, Timeout: timeout,
		Retries: 2, WorkerStall: later, LinkLoss: later, LossRate: 0.5, LinkDelay: later, DelayExtra: extra}
	cases := []struct {
		name string
		spec faults.Spec
		free bool // files no events of its own
	}{
		{"crash+degrade", faults.Spec{NICCrash: later, Degrade: true}, true},
		{"slow", faults.Spec{NICSlow: later, NICSlowFactor: 0.5}, true},
		{"timeout+retries", faults.Spec{Timeout: timeout, Retries: 2}, true},
		{"stall", faults.Spec{WorkerStall: later}, false},
		{"loss", faults.Spec{LinkLoss: later, LossRate: 0.5}, false},
		{"delay", faults.Spec{LinkDelay: later, DelayExtra: extra}, false},
		{"all", all, false},
	}
	for _, id := range scenarios.Names() {
		for i, s := range scenarios.MustLoad(id).Series {
			if s.System != "offload" || s.KnobsOrZero().DirectInterrupts || slices.Contains(FaultPresetIDs(), id) {
				continue // offload alone takes a schedule, and directirq refuses one
			}
			c := presetCase(t, id, i, 0)
			if l := c.spec.Load; l != nil && l.KSweep != nil {
				c.spec = c.spec.WithOutstanding(l.KSweep.Lo) // the sweep's first point
			}
			if c.spec.Seed == 0 {
				c.spec.Seed = faultQuality.Seed // a faulted spec pins its seed
			}
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				run := func(f *faults.Spec) (Result, uint64) {
					c.spec.Faults = f
					cfg, err := PointConfigFor(c.spec, faultQuality)
					if err != nil {
						t.Fatal(err)
					}
					cfg.OfferedRPS = c.rps
					build, eng := cfg.Factory, (*sim.Engine)(nil)
					cfg.Factory = func(e *sim.Engine, rec *stats.Recorder, done func(*task.Request)) scenario.System {
						eng = e
						return build(e, rec, done)
					}
					return RunPoint(cfg), eng.Executed()
				}
				healthy, events := run(nil)
				for _, fc := range cases {
					switch got, n := run(&fc.spec); {
					case fc.free && (got != healthy || n != events):
						t.Errorf("%s: inert schedule changed the point\nfaulted: %+v (%d events)\nhealthy: %+v (%d events)",
							fc.name, got, n, healthy, events)
					case got != healthy || n != events:
						t.Logf("%s: %d events, healthy run %d; Result equal: %t", fc.name, n, events, got == healthy)
					}
				}
			})
		}
	}
}

// TestFaultTimelineDeterministic pins the recovery table the same way:
// two builds of the same preset produce identical phase rows and
// counters.
func TestFaultTimelineDeterministic(t *testing.T) {
	for _, name := range FaultPresetIDs() {
		a, err := FaultTimeline(context.Background(), nil, name, faultQuality)
		if err != nil {
			t.Fatalf("FaultTimeline(%s): %v", name, err)
		}
		b, err := FaultTimeline(context.Background(), nil, name, faultQuality)
		if err != nil {
			t.Fatalf("FaultTimeline(%s) rerun: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("FaultTimeline(%s) not deterministic:\n%+v\nvs\n%+v", name, a, b)
		}
	}
}

// TestAbandonsConserve runs the lossy-fabric point under a steady 1 % frame
// loss with no retry budget, so every lost dispatch or notification ends at
// its first expiry: Offload's Abandon path, which no checked-in preset
// reaches, and the expiry of an answered request whose FINISH was lost (~30
// of each). drive's halt audit holds both to their credits (each returns
// one) and to the lifecycle (a drop per abandoned request, none for an
// answered one: counting those too drives open below zero).
func TestAbandonsConserve(t *testing.T) {
	sp := scenarios.MustLoad("figure-faults-lossyfabric").SpecFor(1)
	f := *sp.Faults
	f.Retries, f.LossRate, f.LossBursts = 0, 0.01, nil
	f.LinkLoss = []faults.Window{{End: faults.Duration(time.Second)}}
	sp.Faults = &f
	cfg, err := PointConfigFor(sp, faultQuality)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OfferedRPS = 300_000
	if r := RunPoint(cfg); r.Dropped == 0 {
		t.Fatalf("nothing abandoned (%+v): the point no longer reaches Offload's Abandon path", r.Point)
	}
}

// TestFaultTimelineShowsRecovery asserts the headline behaviour the
// recovery table exists to demonstrate: during the NIC crash window the
// degraded hash-steering path keeps goodput alive but with a visibly
// worse tail than the healthy phase, and after recovery the tail returns
// to its healthy neighbourhood.
func TestFaultTimelineShowsRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-horizon faulted simulation")
	}
	r, err := FaultTimeline(context.Background(), nil, "figure-faults-niccrash", faultQuality)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Phases) != 4 {
		t.Fatalf("expected 4 phases, got %+v", r.Phases)
	}
	healthy, crash, recovered := r.Phases[0], r.Phases[1], r.Phases[3]
	if crash.Completed == 0 {
		t.Fatal("no completions during the crash window — degradation is not serving")
	}
	if r.Degraded == 0 {
		t.Fatal("no requests took the degraded steering path during the crash")
	}
	if crash.GoodputRPS < 0.5*healthy.GoodputRPS {
		t.Fatalf("degraded goodput collapsed: crash %.0f vs healthy %.0f rps",
			crash.GoodputRPS, healthy.GoodputRPS)
	}
	if crash.P99 < 2*healthy.P99 {
		t.Fatalf("crash-phase p99 (%v) not visibly degraded vs healthy (%v)",
			crash.P99, healthy.P99)
	}
	if recovered.P99 > 2*healthy.P99 {
		t.Fatalf("recovered p99 (%v) did not return near healthy (%v)",
			recovered.P99, healthy.P99)
	}
}
