package experiment

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

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

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current model")

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
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
		t.Errorf("output diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

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

// tableDetails renders, at Quick on rn, the two measured tables whose CLI
// text rounds or omits a number it measured: every Result field of the
// attribution table's points (the CLI prints shares, the mis-dispatch rate
// and achieved at %.0f), and the flow-rule detail rows with the LRU/idle
// eviction split and resident rules the CLI leaves out. Every other table
// prints its numbers exactly in the grid golden.
var tableDetails = map[string]func(t *testing.T, rn *runner.Runner) []byte{
	"attribution": func(t *testing.T, rn *runner.Runner) []byte {
		_, res := tableRun(t, rn, "table-attribution", Quick, Attributed)
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
	},
	"flowrule": func(t *testing.T, rn *runner.Runner) []byte {
		_, res := tableRun(t, rn, "figure-flowrule", Quick, FlowRuleDetail)
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
	},
}

// gridGolden is cmd/mindgap-bench's pin of `mindgap-bench -quality quick
// -csv`: every figure's CSV and every table, byte for byte. That
// package's TestGridGolden rewrites it under -update.
const gridGolden = "../../cmd/mindgap-bench/testdata/grid.golden"

// checkInGrid fails unless got, an entry's or a preset's output at Quick,
// is a run of whole lines of the grid golden.
func checkInGrid(t *testing.T, got []byte) {
	t.Helper()
	grid, err := os.ReadFile(gridGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(got, []byte("\n")) || !bytes.Contains(append([]byte("\n"), grid...), append([]byte("\n"), got...)) {
		t.Errorf("output is not a run of lines of %s:\n%s", gridGolden, got)
	}
}

// TestTableGolden pins every table the quick grid prints: each registry
// entry is rendered at Quick at -j1 and -j4, the two must agree, and the
// text must be its block of the grid golden. The two tables of
// tableDetails also render every number they measured, on the same
// runners, and those bytes must match testdata/tables. A harness refactor
// must pass this without regenerating.
//
// Regenerate (only for intentional model changes), the grid first:
//
//	go test ./cmd/mindgap-bench -run TestGridGolden -update
//	go test ./internal/experiment -run TestTableGolden -update
func TestTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("table golden sweep is full-mode only")
	}
	for _, e := range TableIDs {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			render := func(j int) (text, detail []byte) {
				rn := &runner.Runner{Parallelism: j}
				var buf bytes.Buffer
				if err := e.Render(context.Background(), rn, Quick, &buf, CSV); err != nil {
					t.Fatal(err)
				}
				if d := tableDetails[e.ID]; d != nil {
					detail = d(t, rn)
				}
				return buf.Bytes(), detail
			}
			text, detail := render(1)
			if text4, detail4 := render(4); !bytes.Equal(text, text4) || !bytes.Equal(detail, detail4) {
				t.Fatalf("table %s differs between -j1 and -j4:\n-- j1 --\n%s%s\n-- j4 --\n%s%s", e.ID, text, detail, text4, detail4)
			}
			checkInGrid(t, text)
			if detail != nil {
				checkGolden(t, filepath.Join("testdata", "tables", e.ID+".golden"), detail)
			}
		})
	}
}

// checkRows fails unless each CSV record of got, a preset's output at
// Quick, is a line of the golden at path: one that starts with
// prefix(rec) and, with its runs of spaces folded to one, holds
// fields(rec).
func checkRows(t *testing.T, got []byte, path string, prefix, fields func(rec []string) string) {
	t.Helper()
	pin, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(bytes.NewReader(got))
	r.Comment, r.FieldsPerRecord = '#', -1
	recs, err := r.ReadAll()
	if err != nil || len(recs) == 0 {
		t.Fatalf("%d records (%v) in:\n%s", len(recs), err, got)
	}
	lines := strings.Split(string(pin), "\n")
	for _, rec := range recs {
		if rec[0] == "figure" {
			continue // the CSV header
		}
		if !slices.ContainsFunc(lines, func(l string) bool {
			return strings.HasPrefix(l, prefix(rec)) && strings.Contains(strings.Join(strings.Fields(l), " "), fields(rec))
		}) {
			t.Errorf("%s holds no line %q…%q", path, prefix(rec), fields(rec))
		}
	}
}

// ns prints a CSV nanosecond field as the time.Duration it counts.
func ns(t *testing.T, field string) string {
	n, err := strconv.ParseInt(field, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return time.Duration(n).String()
}

// TestZeroFaultGolden guards the fault layer's off path: every preset
// without a Faults block, rendered at Quick as `mindgap-sim -scenario <p>
// -csv` prints it, must reproduce its one pin. That is its block of the
// grid golden for a figure the grid draws, cmd/mindgap-sim's
// scenario-<p>.golden where one exists, the grid's X9 rows for
// table-tenants and tables/attribution.golden's points for
// table-attribution. A diff means a change moved healthy-system behaviour
// (an extra event, a perturbed RNG stream, a reordered tie-break); a
// preset with no pin fails. Each pin is rewritten by its own package's
// -update.
func TestZeroFaultGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("zero-fault golden sweep is full-mode only")
	}
	drawn := map[string]bool{}
	for _, e := range FigureIDs {
		drawn[e.Source] = true
	}
	for _, name := range scenarios.Names() {
		if slices.Contains(FaultPresetIDs(), name) {
			continue // their Faults block is the point; the grid pins them
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := renderFigure(t, scenarios.MustLoad(name), Quick, 4)
			scenarioPin := filepath.Join("..", "..", "cmd", "mindgap-sim", "testdata", "scenario-"+name+".golden")
			want, err := os.ReadFile(scenarioPin)
			switch {
			case err == nil:
				if !bytes.Equal(got, want) {
					t.Errorf("preset %s diverged from %s\ngot:\n%s\nwant:\n%s", name, scenarioPin, got, want)
				}
			case drawn[name]:
				checkInGrid(t, got)
			case name == "table-tenants":
				// label, sched, tenant, p50, p99, mean, completed
				checkRows(t, got, gridGolden, func([]string) string { return "" }, func(rec []string) string {
					return strings.Join(append(strings.Fields(rec[2]), rec[1], rec[3], rec[4], rec[5], rec[6]), " ")
				})
			case name == "table-attribution":
				// figure, series, x, achieved, p50..max in ns, completed,
				// dropped, preemptions, idle, saturated
				checkRows(t, got, filepath.Join("testdata", "tables", "attribution.golden"),
					func(rec []string) string { return strconv.Quote(rec[1]) + " system=" },
					func(rec []string) string {
						return fmt.Sprintf("x=%s achieved=%s p50=%s p99=%s mean=%s max=%s completed=%s dropped=%s preemptions=%s idle=%s saturated=%s ",
							rec[2], rec[3], ns(t, rec[4]), ns(t, rec[5]), ns(t, rec[6]), ns(t, rec[7]), rec[8], rec[9], rec[10], rec[11], rec[12])
					})
			default:
				t.Fatalf("preset %s has no pin: %v", name, err)
			}
		})
	}
}
