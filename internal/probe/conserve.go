package probe

import (
	"fmt"

	"mindgap/internal/trace"
)

// Ledger is a system's account of itself at halt, the half of the
// conservation audit (Conserve) a system reports through scenario.System.
// The probe fills the lifecycle counts; the model adds what only it holds.
type Ledger struct {
	// Arrived counts the requests the system admitted, Responded those
	// answered (the first response of each), Drops those dropped, by reason.
	Arrived, Responded uint64
	Drops              [trace.DropReasonCount]uint64
	// K is a Logic scheduler's per-worker credit limit and Outstanding its
	// credits in use on each worker; both are zero without one. Under loss
	// recovery, Believed counts the Recovery records believed live on each
	// worker, Stubs the closed records kept to dedupe a late response, and
	// Retries the expiries answered with a retry.
	K                     int
	Outstanding, Believed []int
	Stubs, Retries        uint64
	// Flows counts the flow records the system holds: installed rules and
	// rules waiting for insertion.
	Flows int
	// Events bounds the engine events the system may hold at halt on top
	// of one per open request: core timers, notifications, periodic ticks.
	Events int
}

// Ledger returns the probe's half of a system's ledger.
func (p *Probe) Ledger() Ledger {
	if p == nil {
		return Ledger{}
	}
	return Ledger{Arrived: p.arrivals, Responded: p.responses, Drops: p.drops}
}

// Halt is what the drive loop itself counted by the time the run stopped,
// the other half of the audit.
type Halt struct {
	// Generated sums the generators' Arrivals(); Streams counts the
	// self-timed generators, each holding one pending arrival event. A
	// pulled stream holds none: its next request is on the system's front,
	// already arrived and open.
	Generated uint64
	Streams   int
	// Done counts the responses the loop received.
	Done uint64
	// Pending is the engine's pending event count, watchdog included.
	Pending int
	// Pool and FlowPool are the live counts of the loop's record pools, -1
	// without one; Population is the flow generator's live flow count.
	Pool, FlowPool, Population int
}

// Conserve checks the conservation equations of a halted run and returns
// the first broken one, by name and with its numbers. With open = arrived
// − responded − dropped:
//
//   - lifecycle: generated = arrived, done = responded, open ≥ 0;
//   - pools: Pool live = open + dropped (a dropped request is never
//     returned); FlowPool live ≤ population + open + flows held;
//   - credits: 0 ≤ outstanding(w) ≤ k, and = believed(w) under recovery;
//   - recovery: closed stubs ≤ retries + timeout drops;
//   - engine: pending ≤ streams + watchdog + open + the system's events.
//
// It only reads counts, in O(workers).
func Conserve(l Ledger, h Halt) error {
	var dropped uint64
	for _, n := range l.Drops {
		dropped += n
	}
	open := int64(l.Arrived) - int64(l.Responded) - int64(dropped)
	broken := func(eq, format string, args ...any) error {
		return fmt.Errorf("audit: %s broken: "+format, append([]any{eq}, args...)...)
	}
	switch {
	case h.Generated != l.Arrived || h.Done != l.Responded || open < 0:
		return broken("lifecycle", "generated %d, arrived %d = responded %d + dropped %d + open %d, done %d",
			h.Generated, l.Arrived, l.Responded, dropped, open, h.Done)
	case h.Pool >= 0 && int64(h.Pool) != open+int64(dropped):
		return broken("pools", "task.Pool live %d != open %d + dropped %d", h.Pool, open, dropped)
	case h.FlowPool >= 0 && int64(h.FlowPool) > int64(h.Population+l.Flows)+open:
		return broken("pools", "FlowPool live %d > population %d + open %d + held %d",
			h.FlowPool, h.Population, open, l.Flows)
	}
	for w, out := range l.Outstanding {
		if out < 0 || out > l.K || (l.Believed != nil && out != l.Believed[w]) {
			return broken("credits", "worker %d outstanding %d, k %d, believed live %v",
				w, out, l.K, l.Believed)
		}
	}
	if l.Stubs > l.Retries+l.Drops[trace.DropTimeout] {
		return broken("recovery", "%d closed stubs > %d retries + %d timeout drops",
			l.Stubs, l.Retries, l.Drops[trace.DropTimeout])
	}
	if bound := int64(h.Streams+1+l.Events) + open; int64(h.Pending) > bound {
		return broken("engine", "%d events pending > %d streams + 1 watchdog + %d open + %d held",
			h.Pending, h.Streams, open, l.Events)
	}
	return nil
}
