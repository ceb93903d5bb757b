package experiment

import (
	"context"
	"fmt"
	"io"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/scenarios"
)

// Quality trades run time for statistical confidence.
type Quality struct {
	// Warmup completions are discarded; Measure completions recorded.
	Warmup, Measure int
	// Seed fixes every random stream.
	Seed uint64
}

// Quick is suitable for tests and testing.B benchmarks; Full for the CLI
// runs recorded in EXPERIMENTS.md.
var (
	Quick = Quality{Warmup: 2_000, Measure: 12_000, Seed: 7}
	Full  = Quality{Warmup: 20_000, Measure: 100_000, Seed: 7}
)

// Qualities names the standard qualities: the values both CLIs' -quality
// flag takes.
var Qualities = map[string]Quality{"quick": Quick, "full": Full}

// The figure and table definitions are checked-in scenario presets under
// scenarios/ — titles, labels, grids, workloads and knobs live in the
// JSON files — and every one of them is measured by Run. The two
// registries below are the only place a command-line id is tied to a
// preset and to what prints it: mindgap-bench's -fig/-table flags, their
// help text, -list and the all-entries run order all derive from them.

// Format selects how a figure prints: text blocks, CSV rows or an ASCII
// chart. Tables print the same text in every format.
type Format int

const (
	Text Format = iota
	CSV
	Plot
)

// Entry ties a mindgap-bench command-line id to its definition and to
// the function that measures and prints it.
type Entry struct {
	ID, Source string
	// Render measures the entry on rn at quality q and prints it to w.
	// After a cancelled run it prints the completed prefix and returns
	// the context error; it also returns any write failure.
	Render func(ctx context.Context, rn *runner.Runner, q Quality, w io.Writer, f Format) error
}

// figure is the registry entry of a series preset: its figure block,
// followed by a blank line unless it prints as CSV.
func figure(id, preset string) Entry {
	return Entry{ID: id, Source: preset, Render: func(ctx context.Context, rn *runner.Runner, q Quality, w io.Writer, f Format) error {
		err := RenderPreset(ctx, rn, scenarios.MustLoad(preset), q, w, f)
		if f != CSV {
			fmt.Fprintln(w)
		}
		return err
	}}
}

// presetTable is the registry entry of a table measured from one preset
// as rows of kind k: its title, then print's lines, in every format. A
// cancelled run reaches print only when partial is set — the other
// reductions need every series.
func presetTable[T any](id, preset string, k Kind[T], partial bool, title string, print func(w io.Writer, p scenario.Preset, res []runner.SeriesResult[T])) Entry {
	return Entry{ID: id, Source: "scenarios/" + preset + ".json", Render: func(ctx context.Context, rn *runner.Runner, q Quality, w io.Writer, _ Format) error {
		fmt.Fprintln(w, title)
		p := scenarios.MustLoad(preset)
		res, err := Run(ctx, rn, p, q, k)
		if err == nil || partial {
			print(w, p, res)
		}
		return err
	}}
}

// FigureIDs lists every reproducible figure in mindgap-bench's run
// order: the id `-fig` takes and the name of the scenario preset that
// declares it.
var FigureIDs = []Entry{
	figure("2", "figure2"),
	figure("3", "figure3"),
	figure("3burst", "figure3-burst"),
	figure("4", "figure4"),
	figure("5", "figure5"),
	figure("6", "figure6"),
	figure("6cxl", "figure6-cxl"),
	figure("6linerate", "figure6-linerate"),
	figure("baselines", "baselines"),
	figure("faults-niccrash", "figure-faults-niccrash"),
	figure("faults-lossyfabric", "figure-faults-lossyfabric"),
	figure("flowrule", "figure-flowrule"),
}

// TableIDs lists every table in mindgap-bench's run order: the id
// `-table` takes, where its definition lives, and its render, which sits
// next to the reduction it prints.
var TableIDs = []Entry{
	{"timer", "(analytic, no preset)", timerTable},
	presetTable("ipc", "table-ipc", Plain, false,
		"== T2: §2.2 inter-thread communication overhead (paper: ≈2µs added tail)", printIPC),
	presetTable("wait", "table-wait", Plain, false,
		"== T3: §4 worker wait time at saturation (paper: 1µs workload waits 110% more)", printWait),
	{"latency", "(analytic, no preset)", latencyTable},
	presetTable("policy", "table-policy", Plain, true,
		"== X10: worker-selection policy ablation (bimodal, k=6, no preemption, ρ=0.75)", printPolicy),
	presetTable("dispersion", "table-dispersion", ShortTail, true,
		"== X7: preemption win vs service-time dispersion (mean 10µs, ρ=0.7, 4 workers)", printDispersion),
	presetTable("affinity", "table-affinity", Affinity, false,
		"== X11: scheduling-affinity ablation (10% 100µs requests, 10µs slice, 8 workers)", printAffinity),
	presetTable("attribution", "table-attribution", Attributed, true,
		"== X13: latency attribution (per-phase share of the tail + decision audit, 450 krps)", printAttribution),
	{"faults", "scenarios/figure-faults-*.json", faultsTable},
	// The figure-flowrule figure has already measured these rows in the
	// same process; the runner's memo answers them.
	presetTable("flowrule", "figure-flowrule", FlowRuleDetail, true,
		"== X14: flow-rule offload detail (rule-table telemetry behind the figure)", printFlowRule),
	presetTable("tenants", "table-tenants", TenantMix, false,
		"== X9: multi-tenant isolation (FIFO vs strict class priority)", printTenants),
}
