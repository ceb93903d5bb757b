// Package mindgap reproduces "Mind the Gap: A Case for Informed Request
// Scheduling at the NIC" (Humphries, Kaffes, Mazières, Kozyrakis —
// HotNets '19) as a pure-Go library: the Shinjuku-Offload scheduler, every
// baseline system the paper discusses, the hardware models they run on,
// and the harness that regenerates every figure and in-text measurement of
// the paper's evaluation.
//
// The package layout follows the paper's structure:
//
//   - internal/core — the contribution: the informed NIC-side scheduler
//     (centralized queue, credits, core selection, load feedback) and its
//     assembly onto the simulated SmartNIC.
//   - internal/systems/... — vanilla Shinjuku, RSS/IX, ZygOS, Flow
//     Director, RPCValet, and the §5 ideal-NIC ablations.
//   - internal/sim, fabric, nic/cores models, wire, stats — the substrate.
//   - internal/live + cmd/{dispatcherd,workerd,loadgen} — a real-socket
//     implementation of the same scheduler over UDP.
//   - internal/scenario + scenarios/ — the system registry and the
//     checked-in JSON presets that declare every figure and table.
//   - internal/experiment — the harness: one entry point,
//     experiment.Run(ctx, runner, preset, quality, kind), measures any
//     preset as rows of a kind (experiment.Plain for figures); tables are
//     pure reductions over its output (see EXPERIMENTS.md).
//
// This root package is a thin façade over experiment.Run for programmatic
// use; the cmd/ binaries expose the same functionality on the command
// line.
package mindgap

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"mindgap/internal/experiment"
	"mindgap/scenarios"
)

// Quality trades run time for statistical confidence in figure runs.
type Quality = experiment.Quality

// Figure is a reproduced paper figure (labelled series of measured points).
type Figure = experiment.Figure

// Quick is the CI-sized preset quality.
var Quick = experiment.Quick

// Figures lists the reproducible figure IDs (scenario preset names) in
// stable, sorted order. The set is experiment.FigureIDs — the registry
// mindgap-bench's -fig flag runs from.
func Figures() []string {
	out := make([]string, 0, len(experiment.FigureIDs))
	for _, f := range experiment.FigureIDs {
		out = append(out, f.Source)
	}
	sort.Strings(out)
	return out
}

// RunFigure regenerates one paper figure by ID on the default parallel
// runner.
func RunFigure(id string, q Quality) (Figure, error) {
	if !slices.Contains(Figures(), id) {
		return Figure{}, fmt.Errorf("mindgap: unknown figure %q (have %v)", id, Figures())
	}
	p, err := scenarios.Load(id)
	if err != nil {
		return Figure{}, err
	}
	res, err := experiment.Run(context.Background(), nil, p, q, experiment.Plain)
	return experiment.NewFigure(p, res), err
}
