package experiment

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/scenarios"
)

// resultFields prints every field of a measured point (Result's own
// String method abbreviates).
func resultFields(r Result) string {
	return fmt.Sprintf("system=%s x=%g achieved=%g p50=%v p99=%v mean=%v max=%v completed=%d dropped=%d preemptions=%d idle=%g saturated=%t truncated=%t simtime=%v",
		r.SystemName, r.OfferedRPS, r.AchievedRPS, r.P50, r.P99, r.Mean, r.Max,
		r.Completed, r.Dropped, r.Preemptions, r.WorkerIdleFraction, r.Saturated, r.Truncated, r.SimTime)
}

// tableRenderers renders every measured mindgap-bench table (the analytic
// T1/T4 tables have no simulation behind them) to a canonical text form
// on the given runner. The formats mirror the CLI's rows but print every
// field, so a golden diff points at the number that moved.
// tableRun measures a checked-in table preset as rows of kind k on rn
// (nil = default parallel runner).
func tableRun[T any](t *testing.T, rn *runner.Runner, presetID string, q Quality, k Kind[T]) (scenario.Preset, []runner.SeriesResult[T]) {
	t.Helper()
	p := scenarios.MustLoad(presetID)
	res, err := Run(context.Background(), rn, p, q, k)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

var tableRenderers = []struct {
	name   string
	render func(t *testing.T, rn *runner.Runner) []byte
}{
	{"ipc", func(t *testing.T, rn *runner.Runner) []byte {
		_, res := tableRun(t, rn, "table-ipc", zeroFaultQuality, Plain)
		r := IPCOverhead(res)
		return []byte(fmt.Sprintf("shinjuku_p99=%v rss_p99=%v overhead=%v\n", r.ShinjukuP99, r.RSSP99, r.Overhead))
	}},
	{"wait", func(t *testing.T, rn *runner.Runner) []byte {
		_, res := tableRun(t, rn, "table-wait", zeroFaultQuality, Plain)
		r := WorkerWait(res)
		return []byte(fmt.Sprintf("idle_100us=%g idle_1us=%g extra=%g\n", r.IdleAt100us, r.IdleAt1us, r.ExtraWaitFrac))
	}},
	{"policy", func(t *testing.T, rn *runner.Runner) []byte {
		var buf bytes.Buffer
		for _, r := range PolicyRows(tableRun(t, rn, "table-policy", zeroFaultQuality, Plain)) {
			fmt.Fprintf(&buf, "%v,%v,%v,%g\n", r.Policy, r.P50, r.P99, r.Achieved)
		}
		return buf.Bytes()
	}},
	{"dispersion", func(t *testing.T, rn *runner.Runner) []byte {
		var buf bytes.Buffer
		for _, r := range DispersionRows(tableRun(t, rn, "table-dispersion", zeroFaultQuality, ShortTail)) {
			fmt.Fprintf(&buf, "%q,%g,%v,%v,%g\n", r.Workload, r.CV2, r.PreemptShortP99, r.NoPreemptShortP99, r.Win)
		}
		return buf.Bytes()
	}},
	{"affinity", func(t *testing.T, rn *runner.Runner) []byte {
		_, res := tableRun(t, rn, "table-affinity", zeroFaultQuality, Affinity)
		r := AffinityAblation(res)
		return []byte(fmt.Sprintf("migrations_off=%d migrations_on=%d preemptions=%d mean_off=%v mean_on=%v p99_off=%v p99_on=%v\n",
			r.MigrationsOff, r.MigrationsOn, r.Preemptions, r.MeanOff, r.MeanOn, r.P99Off, r.P99On))
	}},
	{"attribution", func(t *testing.T, rn *runner.Runner) []byte {
		_, res := tableRun(t, rn, "table-attribution", zeroFaultQuality, Attributed)
		var buf bytes.Buffer
		for _, sr := range res {
			for _, r := range sr.Results {
				fmt.Fprintf(&buf, "%q %s\n", sr.Label, resultFields(r.Result))
				for _, ph := range r.Phases {
					fmt.Fprintf(&buf, "  phase %+v\n", ph)
				}
				fmt.Fprintf(&buf, "  audit %+v\n", r.Audit)
			}
		}
		return buf.Bytes()
	}},
	{"flowrule", func(t *testing.T, rn *runner.Runner) []byte {
		_, res := tableRun(t, rn, "figure-flowrule", zeroFaultQuality, FlowRuleDetail)
		var buf bytes.Buffer
		for _, sr := range res {
			for _, r := range sr.Results {
				fmt.Fprintf(&buf, "%q flows=%d %s\n", sr.Label, r.Flows, resultFields(r.Result))
				fmt.Fprintf(&buf, "  fast=%g slow=%g drop=%g hit=%g inserted=%g lru=%g idle=%g refused=%g resident=%g threshold=%g\n",
					r.FastPackets, r.SlowPackets, r.DropPackets, r.FastHitRate, r.Insertions,
					r.LRUEvictions, r.IdleEvictions, r.OffloadRefused, r.Resident, r.Threshold)
			}
		}
		return buf.Bytes()
	}},
	{"tenants", func(t *testing.T, rn *runner.Runner) []byte {
		_, res := tableRun(t, rn, "table-tenants", zeroFaultQuality, TenantMix)
		var buf bytes.Buffer
		for _, mix := range Rows(res) {
			for _, tr := range mix {
				fmt.Fprintf(&buf, "%s,%s,%v,%v,%v,%d\n", tr.Sched, tr.Tenant.Name, tr.P50, tr.P99, tr.Mean, tr.Completed)
			}
		}
		return buf.Bytes()
	}},
	{"faults", func(t *testing.T, rn *runner.Runner) []byte {
		var buf bytes.Buffer
		for _, id := range FaultPresetIDs() {
			r, err := FaultTimeline(context.Background(), rn, id, zeroFaultQuality)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%+v\n", r)
		}
		return buf.Bytes()
	}},
}

// TestTableGolden pins the measured tables across commits, the way
// TestZeroFaultGolden pins the figure presets: every table is rendered
// at -j1 and -j4, the two must agree, and the bytes must match
// testdata/tables. A harness refactor must pass this without
// regenerating.
//
// Regenerate (only for intentional model changes):
//
//	go test ./internal/experiment -run TestTableGolden -update
func TestTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("table golden sweep is full-mode only")
	}
	for _, tr := range tableRenderers {
		name, render := tr.name, tr.render
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := render(t, &runner.Runner{Parallelism: 1})
			if j4 := render(t, &runner.Runner{Parallelism: 4}); !bytes.Equal(got, j4) {
				t.Fatalf("table %s differs between -j1 and -j4:\n-- j1 --\n%s\n-- j4 --\n%s", name, got, j4)
			}
			path := filepath.Join("testdata", "tables", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("table %s diverged from golden\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
