package experiment

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mindgap/internal/faults"
	"mindgap/scenarios"
)

// faultQuality mirrors zeroFaultQuality: the property under test is
// byte-identity, not statistical convergence, so small runs suffice.
var faultQuality = Quality{Warmup: 300, Measure: 2000, Seed: 7}

// renderFaultPreset renders one fault preset's figure CSV at the given
// runner parallelism.
func renderFaultPreset(t *testing.T, name string, parallelism int) []byte {
	t.Helper()
	return renderFigure(t, scenarios.MustLoad(name), faultQuality, parallelism)
}

// TestFaultPresetsDeterministic is the reproducibility gate for the fault
// layer: a faulted sweep must be byte-identical across runner parallelism
// (-j1 vs -j4) and across GOMAXPROCS settings, because every source of
// fault randomness is a per-instance stream compiled from the scenario
// seed. This test deliberately has no -short skip — CI runs it under
// -race, where a shared Schedule between concurrently simulated points
// would also surface as a data race.
func TestFaultPresetsDeterministic(t *testing.T) {
	for _, name := range FaultPresetIDs() {
		name := name
		t.Run(name, func(t *testing.T) {
			serial := renderFaultPreset(t, name, 1)
			if len(serial) == 0 {
				t.Fatal("empty render")
			}
			for _, j := range []int{2, 4} {
				if got := renderFaultPreset(t, name, j); !bytes.Equal(got, serial) {
					t.Fatalf("-j%d output differs from -j1:\n%s\nvs\n%s", j, got, serial)
				}
			}
			old := runtime.GOMAXPROCS(1)
			single := renderFaultPreset(t, name, 4)
			runtime.GOMAXPROCS(old)
			if !bytes.Equal(single, serial) {
				t.Fatalf("GOMAXPROCS=1 output differs:\n%s\nvs\n%s", single, serial)
			}
		})
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
