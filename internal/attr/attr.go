// Package attr is the latency-attribution and decision-audit layer: it
// decomposes every request's end-to-end latency into causal phases and
// audits every dispatch decision against the ground-truth queue state the
// dispatcher could not see. The paper's argument is that the NIC acts on
// a stale view of host queues and that this information gap inflates tail
// latency; this package measures the gap itself rather than only its end
// effect on p99.
//
// The phase model partitions arrive→respond exactly (integer nanoseconds,
// no residue):
//
//	ingress      client wire: transmit → scheduler NIC port
//	dispatch     NIC/host processing between ingress and the first queue
//	             entry (networker, shm hops, queue-manager handling)
//	nic-queue    waiting in the central scheduler queue for a decision
//	fabric       dispatch decision → frame lands at the worker (NIC↔host
//	             transit, TX stage, serialization)
//	host-queue   landed at the worker → execution starts (RX-ring/stash
//	             wait plus pickup cost — the wait the dispatcher's stale
//	             view failed to avoid)
//	service      the request's nominal service time
//	preempt-ovh  everything preemption added: context save/resume/migrate,
//	             timer costs, and requeue round trips back to the NIC
//	egress       completion → response reaches the client
//
// Systems report lifecycle instants to their probe.Probe, which forwards
// them to the Collector's hooks; every hook is a no-op on a nil *Collector,
// so disabled runs execute the exact same event sequence (attribution only
// observes, never schedules).
package attr

import (
	"fmt"
	"io"
	"time"

	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/trace"
)

// Phase indexes one causal segment of a request's end-to-end latency.
type Phase int

// Phases in causal order. The vector of all phases partitions the
// end-to-end latency exactly.
const (
	PhaseIngress Phase = iota
	PhaseDispatch
	PhaseNICQueue
	PhaseFabric
	PhaseHostQueue
	PhaseService
	PhasePreempt
	PhaseEgress
	// PhaseCount sizes phase vectors.
	PhaseCount
)

var phaseNames = [...]string{
	"ingress", "dispatch", "nic-queue", "fabric", "host-queue",
	"service", "preempt-ovh", "egress",
}

// String returns the phase name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase(?)"
}

// mark tags the last lifecycle step seen for an in-flight request; the
// transition (last mark → new mark) decides which phase the elapsed time
// belongs to.
type markKind uint8

const (
	mkArrive markKind = iota
	mkIngress
	mkEnqueue
	mkDispatch
	mkHostArrive
	mkStart
	mkPreempt
	mkComplete
	mkRespond
)

// Config sizes the collector.
type Config struct {
	// TailK bounds the slowest-K reservoir (default 8).
	TailK int
	// KeepTimelines retains every completed request's phase segments for
	// trace export. Off for measurement runs — it grows with completions.
	KeepTimelines bool
	// AuditSamples bounds retained per-decision audit samples (counter
	// tracks in trace export). 0 retains none; aggregates are always kept.
	AuditSamples int
}

// Segment is one retained timeline interval of a request (KeepTimelines).
type Segment struct {
	Phase    Phase
	From, To sim.Time
}

// Timeline is one completed request's retained phase history.
type Timeline struct {
	ReqID    uint64
	Arrive   sim.Time
	Total    time.Duration
	Phases   [PhaseCount]time.Duration
	Segments []Segment
}

// TailSample is one slowest-K reservoir entry.
type TailSample struct {
	ReqID  uint64
	Arrive sim.Time
	Total  time.Duration
	Phases [PhaseCount]time.Duration
}

// reqState tracks one in-flight request.
type reqState struct {
	id      uint64
	arrive  sim.Time
	service time.Duration
	mark    sim.Time
	last    markKind
	phases  [PhaseCount]time.Duration
	segs    []Segment // KeepTimelines only
}

// Collector accumulates phase decompositions and dispatch audits for one
// simulation run. It is an observer: its hooks never schedule engine
// events, so an attached collector cannot perturb the simulation. All
// methods are no-ops on a nil receiver — the probe calls hooks
// unconditionally and disabled runs stay byte-identical.
//
// Not safe for concurrent use; each run owns its own collector.
type Collector struct {
	cfg Config

	inflight idTable
	free     []*reqState

	wf        *stats.Waterfall
	completed uint64
	dropped   [trace.DropReasonCount]uint64

	tail      []TailSample
	timelines []Timeline

	audit auditState
}

// New creates a collector.
func New(cfg Config) *Collector {
	if cfg.TailK <= 0 {
		cfg.TailK = 8
	}
	c := &Collector{cfg: cfg, wf: stats.NewWaterfall(int(PhaseCount))}
	c.inflight.grow()
	return c
}

func (c *Collector) acquire() *reqState {
	if n := len(c.free); n > 0 {
		st := c.free[n-1]
		c.free = c.free[:n-1]
		return st
	}
	return &reqState{}
}

func (c *Collector) release(st *reqState) {
	*st = reqState{segs: st.segs[:0]}
	c.free = append(c.free, st)
}

// Arrive opens a request's attribution record at its client transmit
// instant. service is the nominal service time (the work the request
// would take with zero scheduling overhead).
func (c *Collector) Arrive(at sim.Time, id uint64, service time.Duration) {
	if c == nil {
		return
	}
	if c.inflight.get(id) != nil {
		return // defensive: duplicate arrival, keep the original record
	}
	st := c.acquire()
	st.id, st.arrive, st.service = id, at, service
	st.mark, st.last = at, mkArrive
	c.inflight.put(id, st)
}

// step is the hooks' inlinable front: a nil collector costs the caller a
// nil check, not a call.
func (c *Collector) step(at sim.Time, id uint64, k markKind) *reqState {
	if c == nil {
		return nil
	}
	return c.advance(at, id, k)
}

// advance moves a request's phase state machine; the (last, k) transition
// decides which phase the elapsed interval belongs to. Intervals that
// belong to no direct phase (preempt→requeue notification trips, execution
// beyond the nominal service time) surface as preempt-ovh residue when the
// record closes. It returns the request's state, nil when none is open.
func (c *Collector) advance(at sim.Time, id uint64, k markKind) *reqState {
	st := c.inflight.get(id)
	if st == nil {
		return nil
	}
	d := at.Sub(st.mark)
	if d < 0 {
		d = 0
	}
	phase := Phase(-1)
	switch k {
	case mkIngress:
		phase = PhaseIngress
	case mkEnqueue:
		if st.last == mkIngress {
			phase = PhaseDispatch
		}
	case mkDispatch:
		switch st.last {
		case mkEnqueue:
			phase = PhaseNICQueue
		case mkIngress:
			// Steered straight to a worker with no central queue entry
			// (degraded hash steering): the interval is pure dispatch
			// processing.
			phase = PhaseDispatch
		}
	case mkHostArrive:
		if st.last == mkDispatch {
			phase = PhaseFabric
		}
	case mkStart:
		if st.last == mkHostArrive || st.last == mkDispatch {
			phase = PhaseHostQueue
		}
	case mkPreempt, mkComplete:
		if st.last == mkStart {
			// An execution segment: retained for timelines under the
			// service label; the service/overhead split is computed when
			// the record closes.
			if c.cfg.KeepTimelines && at > st.mark {
				st.segs = append(st.segs, Segment{Phase: PhaseService, From: st.mark, To: at})
			}
		}
	case mkRespond:
		if st.last == mkComplete {
			phase = PhaseEgress
		}
	}
	if phase >= 0 {
		st.phases[phase] += d
		if c.cfg.KeepTimelines && at > st.mark {
			st.segs = append(st.segs, Segment{Phase: phase, From: st.mark, To: at})
		}
	}
	st.mark, st.last = at, k
	return st
}

// Ingress marks arrival at the scheduler's networking subsystem.
func (c *Collector) Ingress(at sim.Time, id uint64) { c.step(at, id, mkIngress) }

// Enqueue marks entry into a scheduler queue (central or per-core).
func (c *Collector) Enqueue(at sim.Time, id uint64) { c.step(at, id, mkEnqueue) }

// Dispatch marks the scheduler's worker-assignment decision.
func (c *Collector) Dispatch(at sim.Time, id uint64) { c.step(at, id, mkDispatch) }

// HostArrive marks the request's frame landing at the worker (RX ring or
// stash) — the boundary between fabric transit and host-queue wait.
func (c *Collector) HostArrive(at sim.Time, id uint64) { c.step(at, id, mkHostArrive) }

// Start marks execution beginning (or resuming) on a worker core.
func (c *Collector) Start(at sim.Time, id uint64) { c.step(at, id, mkStart) }

// Preempt marks a preemption taking the request off its core.
func (c *Collector) Preempt(at sim.Time, id uint64) { c.step(at, id, mkPreempt) }

// Complete marks the request finishing all of its work.
func (c *Collector) Complete(at sim.Time, id uint64) { c.step(at, id, mkComplete) }

// Respond closes the record at the instant the response reaches the
// client: the egress phase is the completion→response interval, service
// is the nominal service time, and preempt-ovh absorbs exactly the time
// no other phase covers — so the phase vector partitions the end-to-end
// latency with zero residue.
func (c *Collector) Respond(at sim.Time, id uint64) {
	st := c.step(at, id, mkRespond)
	if st == nil {
		return
	}
	total := at.Sub(st.arrive)
	if total < 0 {
		total = 0
	}
	st.phases[PhaseService] = st.service
	var covered time.Duration
	for p := Phase(0); p < PhaseCount; p++ {
		if p != PhasePreempt {
			covered += st.phases[p]
		}
	}
	resid := total - covered
	if resid < 0 {
		// Only reachable through fault-layer retries reusing a request ID
		// with a shorter second life; clamp rather than poison the sums.
		resid = 0
	}
	st.phases[PhasePreempt] = resid

	c.wf.Record(total, st.phases[:])
	c.completed++
	c.tailInsert(st, total)
	if c.cfg.KeepTimelines {
		segs := make([]Segment, len(st.segs))
		copy(segs, st.segs)
		c.timelines = append(c.timelines, Timeline{
			ReqID: st.id, Arrive: st.arrive, Total: total,
			Phases: st.phases, Segments: segs,
		})
	}
	c.inflight.del(id)
	c.release(st)
}

// Drop closes a request's record as lost, counted by reason.
func (c *Collector) Drop(at sim.Time, id uint64, reason trace.DropReason) {
	if c == nil {
		return
	}
	if int(reason) < len(c.dropped) {
		c.dropped[reason]++
	}
	if st := c.inflight.del(id); st != nil {
		c.release(st)
	}
}

// tailInsert maintains the slowest-K reservoir, ordered by descending
// total latency with ascending request ID breaking ties — a total order,
// so the reservoir is independent of completion interleaving.
func (c *Collector) tailInsert(st *reqState, total time.Duration) {
	worse := func(a TailSample, b TailSample) bool {
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return a.ReqID < b.ReqID
	}
	s := TailSample{ReqID: st.id, Arrive: st.arrive, Total: total, Phases: st.phases}
	if len(c.tail) == c.cfg.TailK && !worse(s, c.tail[len(c.tail)-1]) {
		return
	}
	i := len(c.tail)
	for i > 0 && worse(s, c.tail[i-1]) {
		i--
	}
	if len(c.tail) < c.cfg.TailK {
		c.tail = append(c.tail, TailSample{})
	}
	copy(c.tail[i+1:], c.tail[i:])
	c.tail[i] = s
}

// Completed returns how many requests closed with a full decomposition.
func (c *Collector) Completed() uint64 {
	if c == nil {
		return 0
	}
	return c.completed
}

// DropCount returns how many requests were dropped for the given reason.
func (c *Collector) DropCount(r trace.DropReason) uint64 {
	if c == nil || int(r) >= len(c.dropped) {
		return 0
	}
	return c.dropped[r]
}

// Waterfall returns the aggregated per-phase distributions.
func (c *Collector) Waterfall() *stats.Waterfall {
	if c == nil {
		return nil
	}
	return c.wf
}

// Tail returns the slowest-K reservoir, slowest first.
func (c *Collector) Tail() []TailSample {
	if c == nil {
		return nil
	}
	return c.tail
}

// Timelines returns the retained per-request timelines (KeepTimelines),
// in completion order.
func (c *Collector) Timelines() []Timeline {
	if c == nil {
		return nil
	}
	return c.timelines
}

// PhaseStat summarizes one phase of the waterfall.
type PhaseStat struct {
	Phase Phase
	// Mean, P50 and P99 are the phase's own duration distribution.
	Mean, P50, P99 time.Duration
	// MeanShare is the phase's share of total latency mass across all
	// completed requests.
	MeanShare float64
	// TailShare is the phase's share of latency within the slowest-K
	// reservoir — where the p99 tail actually spends its time.
	TailShare float64
}

// PhaseStats summarizes every phase in causal order.
func (c *Collector) PhaseStats() []PhaseStat {
	if c == nil {
		return nil
	}
	var tailTotal time.Duration
	var tailPhase [PhaseCount]time.Duration
	for _, s := range c.tail {
		tailTotal += s.Total
		for p := Phase(0); p < PhaseCount; p++ {
			tailPhase[p] += s.Phases[p]
		}
	}
	out := make([]PhaseStat, PhaseCount)
	for p := Phase(0); p < PhaseCount; p++ {
		h := c.wf.Phase(int(p))
		ps := PhaseStat{
			Phase: p, Mean: h.Mean(), P50: h.P50(), P99: h.P99(),
			MeanShare: c.wf.MeanShare(int(p)),
		}
		if tailTotal > 0 {
			ps.TailShare = float64(tailPhase[p]) / float64(tailTotal)
		}
		out[p] = ps
	}
	return out
}

// WriteText prints the phase waterfall, the decision-audit summary and
// the slowest-K requests: the text twin of ChromeEvents.
func (c *Collector) WriteText(w io.Writer) {
	fmt.Fprintf(w, "\nlatency attribution (%d completed requests):\n", c.Completed())
	fmt.Fprintf(w, "  %-12s %12s %12s %12s %10s %10s\n",
		"phase", "mean", "p50", "p99", "mean-share", "tail-share")
	for _, ps := range c.PhaseStats() {
		if ps.Mean == 0 && ps.P99 == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %12v %12v %12v %9.1f%% %9.1f%%\n",
			ps.Phase, ps.Mean, ps.P50, ps.P99, ps.MeanShare*100, ps.TailShare*100)
	}
	a := c.AuditSummary()
	fmt.Fprintf(w, "decision audit: decisions=%d informed=%d mis-dispatch=%.1f%% staleness(mean/p99)=%v/%v excess(mean/p99)=%v/%v\n",
		a.Decisions, a.Informed, a.MisRate*100,
		a.MeanStaleness, a.P99Staleness, a.MeanExcess, a.P99Excess)
	if tail := c.Tail(); len(tail) > 0 {
		fmt.Fprintf(w, "slowest %d requests:\n", len(tail))
		for _, t := range tail {
			fmt.Fprintf(w, "  req %-6d total=%-10v", t.ReqID, t.Total)
			for p := Phase(0); p < PhaseCount; p++ {
				if d := t.Phases[p]; d > 0 {
					fmt.Fprintf(w, " %s=%v", p, d)
				}
			}
			fmt.Fprintln(w)
		}
	}
}
