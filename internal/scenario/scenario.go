// Package scenario is the declarative layer between experiment
// definitions and the systems they measure: a serializable Spec (system
// kind + typed knobs, workload, keys, flow or tenant streams, load grid,
// quality, seed, fault schedule) with a canonical JSON encoding and
// fingerprint, plus a central registry that maps system names to
// builders with per-kind knob validation.
//
// Every system in the repository — the paper's Shinjuku-Offload and all
// §2.1 baselines — is assembled through Build, so scenarios are data:
// the experiment harness and the CLIs construct systems from the same
// audited specs, the runner's result cache keys derive from
// Spec.Fingerprint, and checked-in presets under scenarios/ replace
// hand-rolled factory closures.
package scenario

import (
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// System is the common surface of every scheduling system in this
// repository (Shinjuku-Offload, vanilla Shinjuku, RSS, ZygOS, Flow
// Director, RPCValet, eRSS, and the ideal-NIC ablations).
type System interface {
	// Name identifies the system in reports.
	Name() string
	// Inject has the client transmit a request at its Arrival instant,
	// which a pulled run may compute after the fact. The request crosses
	// the system's front — the FIFO pipes only the client feeds — in one
	// event, at its exit.
	Inject(*task.Request)
	// Pull has each request leaving the front call next, which transmits
	// the run's next request through Inject, so no generator files events.
	Pull(next func())
	// WorkerIdleFraction returns the mean worker idle fraction since
	// ArmWorkerTrackers.
	WorkerIdleFraction(sim.Time) float64
	// ArmWorkerTrackers starts worker utilization accounting.
	ArmWorkerTrackers(sim.Time)
	// Ledger is the system's account of itself for the conservation audit
	// every drive loop runs at halt (probe.Conserve). It only reads.
	Ledger() probe.Ledger
}

// Factory builds a system on the given engine. done must be invoked at
// the instant the client receives each response; rec may be used for
// drop and preemption accounting.
type Factory func(eng *sim.Engine, rec *stats.Recorder, done func(*task.Request)) System
