// Package idealnic builds the §5 "ideal SmartNIC" ablations: the
// Shinjuku-Offload architecture with each hardware limitation of §5.1
// removed in turn, to show which fix recovers the Figure 6 loss.
//
//   - WithCXL: coherent shared memory replaces packet-based NIC↔host
//     communication (§5.1 suggestion 2) — 0.5 µs one way instead of
//     2.56 µs, with cache-line-cheap message construction.
//   - WithLineRate: the dispatcher runs in FPGA/ASIC hardware at line rate
//     (§5.1 suggestion 1) instead of ARM cores.
//   - WithDirectInterrupts: the NIC posts preemption interrupts straight to
//     host cores (§5.1 suggestion 3), removing the self-arm timer and its
//     unnecessary preemptions.
//   - Full: all three combined — the paper's ideal NIC (§3.1).
package idealnic

import (
	"strings"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// Config describes the ablation point.
type Config struct {
	// P is the baseline hardware cost model (before ablations).
	P params.Params
	// Workers, Outstanding, Slice, Policy as in core.OffloadConfig.
	Workers     int
	Outstanding int
	Slice       time.Duration
	Policy      core.Policy

	// CXL, LineRate, DirectInterrupts select which §5.1 fixes to apply.
	CXL              bool
	LineRate         bool
	DirectInterrupts bool
}

// System is an ablated Offload with its own name, so report rows
// distinguish "idealnic/cxl" from the stock "shinjuku-offload".
type System struct {
	*core.Offload
	name string
}

// Name identifies the ablation point in reports.
func (s *System) Name() string { return s.name }

// New assembles the ablated system on top of the core Offload machinery.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *System {
	p := cfg.P
	if cfg.CXL {
		p = p.WithCXL()
	}
	if cfg.LineRate {
		p = p.WithLineRateScheduler()
	}
	off := core.NewOffload(eng, core.OffloadConfig{
		P:                p,
		Workers:          cfg.Workers,
		Outstanding:      cfg.Outstanding,
		Slice:            cfg.Slice,
		Policy:           cfg.Policy,
		DirectInterrupts: cfg.DirectInterrupts,
	}, pr, done)
	return &System{Offload: off, name: NameFor(cfg)}
}

// NameFor returns the system name for the ablation point: "idealnic"
// bare, or "idealnic/" plus the "+"-joined active ablations, e.g.
// "idealnic/cxl" or "idealnic/cxl+linerate+directirq".
func NameFor(cfg Config) string {
	var abl []string
	if cfg.CXL {
		abl = append(abl, "cxl")
	}
	if cfg.LineRate {
		abl = append(abl, "linerate")
	}
	if cfg.DirectInterrupts {
		abl = append(abl, "directirq")
	}
	if len(abl) == 0 {
		return "idealnic"
	}
	return "idealnic/" + strings.Join(abl, "+")
}
