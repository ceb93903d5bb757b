package scenario

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mindgap/internal/faults"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

func faultedSpec() Spec {
	return Spec{
		System: "offload",
		Knobs:  &Knobs{Workers: 2, Outstanding: 2, Slice: Duration(10 * time.Microsecond)},
		Seed:   7,
		Faults: &faults.Spec{
			NICCrash: []faults.Window{{
				Start: faults.Duration(time.Millisecond),
				End:   faults.Duration(2 * time.Millisecond),
			}},
			Timeout: faults.Duration(500 * time.Microsecond),
			Retries: 2,
			Degrade: true,
		},
	}
}

// TestFaultGate covers the registry's fault-admission rules: only
// systems that opted into degradation accept a fault block, faulted
// specs must pin a nonzero seed, and the block itself must validate.
func TestFaultGate(t *testing.T) {
	good := faultedSpec()
	if _, err := Build(good); err != nil {
		t.Fatalf("valid faulted offload spec rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"non-degradable system", func(s *Spec) {
			s.System = "rss"
			s.Knobs = &Knobs{Workers: 2}
		}, `system "rss" does not read faults`},
		{"empty fault block", func(s *Spec) { s.Faults = &faults.Spec{} }, "empty"},
		{"zero seed", func(s *Spec) { s.Seed = 0 }, "seed"},
		{"invalid fault block", func(s *Spec) { s.Faults.Retries = -1 }, "retries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := faultedSpec()
			tc.mut(&sp)
			_, err := Build(sp)
			if err == nil {
				t.Fatalf("Build accepted %s", tc.name)
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFaultedBuildCompilesSchedule checks the offload builder threads
// the fault block through: a faulted spec builds a system whose engine
// run actually consults the schedule (smoke: the factory constructs and
// serves without panicking, and two builds from the same spec are
// independent instances — the parallel-sweep requirement).
func TestFaultedBuildCompilesSchedule(t *testing.T) {
	f, err := Build(faultedSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		eng := sim.New()
		done := 0
		sys := f(eng, nil, func(*task.Request) { done++ })
		req := task.New(1, 0, 5*time.Microsecond)
		sys.Inject(req)
		eng.Run()
		if done != 1 {
			t.Fatalf("build %d: request did not complete through faulted system (done=%d)", i, done)
		}
	}
}

// TestFaultableFlag pins which systems read a fault schedule: only the
// offload system carries the recovery machinery today. Extending another
// system requires adding "faults" to its read set deliberately, not by
// accident.
func TestFaultableFlag(t *testing.T) {
	for _, b := range Systems() {
		want := b.Name == "offload"
		if got := slices.Contains(b.Reads, "faults"); got != want {
			t.Errorf("system %q reads faults = %v, want %v", b.Name, got, want)
		}
	}
}
