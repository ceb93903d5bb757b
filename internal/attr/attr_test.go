package attr

import (
	"testing"
	"time"

	"mindgap/internal/sim"
	"mindgap/internal/trace"
)

// TestPhasePartitionExact drives one request through a full preempted
// lifecycle and checks every phase against the hand-computed interval —
// and that the phase vector partitions arrive→respond with zero residue.
func TestPhasePartitionExact(t *testing.T) {
	c := New(Config{KeepTimelines: true})
	const id = 7
	const service = 3000 * time.Nanosecond

	c.Arrive(0, id, service)
	c.Ingress(100, id)     // ingress: 100
	c.Enqueue(250, id)     // dispatch: 150
	c.Dispatch(900, id)    // nic-queue: 650
	c.HostArrive(1500, id) // fabric: 600
	c.Start(2600, id)      // host-queue: 1100
	c.Preempt(4600, id)    // ran 2000
	c.Enqueue(4700, id)    // preempt→requeue trip: 100, no direct phase
	c.Dispatch(5000, id)   // nic-queue: +300
	c.HostArrive(5400, id) // fabric: +400
	c.Start(6000, id)      // host-queue: +600
	c.Complete(7000, id)   // ran 1000 (total executed = nominal service)
	c.Respond(7400, id)    // egress: 400

	tls := c.Timelines()
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1", len(tls))
	}
	tl := tls[0]
	want := [PhaseCount]time.Duration{
		PhaseIngress:   100,
		PhaseDispatch:  150,
		PhaseNICQueue:  650 + 300,
		PhaseFabric:    600 + 400,
		PhaseHostQueue: 1100 + 600,
		PhaseService:   service,
		PhasePreempt:   100, // the unattributed requeue trip becomes overhead
		PhaseEgress:    400,
	}
	var sum time.Duration
	for p := Phase(0); p < PhaseCount; p++ {
		if tl.Phases[p] != want[p] {
			t.Errorf("phase %v = %v, want %v", p, tl.Phases[p], want[p])
		}
		sum += tl.Phases[p]
	}
	if total := sim.Time(7400).Sub(0); sum != total || tl.Total != total {
		t.Errorf("partition: phases sum to %v, timeline total %v, want %v", sum, tl.Total, total)
	}
	if c.Completed() != 1 {
		t.Errorf("Completed = %d, want 1", c.Completed())
	}
}

// TestOverrunBecomesPreemptOverhead: execution time beyond the nominal
// service (migrated context fetches, cache effects) must land in
// preempt-ovh, keeping the partition exact.
func TestOverrunBecomesPreemptOverhead(t *testing.T) {
	c := New(Config{})
	const id = 1
	c.Arrive(0, id, 3000)
	c.Ingress(0, id)
	c.Enqueue(0, id)
	c.Dispatch(0, id)
	c.HostArrive(0, id)
	c.Start(0, id)
	c.Complete(5000, id) // 2000 beyond nominal
	c.Respond(5000, id)

	tail := c.Tail()
	if len(tail) != 1 {
		t.Fatalf("tail = %d samples, want 1", len(tail))
	}
	if got := tail[0].Phases[PhasePreempt]; got != 2000 {
		t.Errorf("preempt-ovh = %v, want 2000ns", got)
	}
	if got := tail[0].Phases[PhaseService]; got != 3000 {
		t.Errorf("service = %v, want 3000ns", got)
	}
}

// TestTailReservoir checks the slowest-K order: descending total,
// ascending request ID on ties, bounded at K.
func TestTailReservoir(t *testing.T) {
	c := New(Config{TailK: 3})
	finish := func(id uint64, total time.Duration) {
		c.Arrive(0, id, 0)
		c.Respond(sim.Time(total), id)
	}
	finish(1, 30)
	finish(2, 50)
	finish(3, 30) // ties with id 1; id 1 sorts first
	finish(4, 10) // never enters a full reservoir of slower requests
	finish(5, 40)

	tail := c.Tail()
	wantIDs := []uint64{2, 5, 1}
	wantTotals := []time.Duration{50, 40, 30}
	if len(tail) != len(wantIDs) {
		t.Fatalf("tail length = %d, want %d", len(tail), len(wantIDs))
	}
	for i := range tail {
		if tail[i].ReqID != wantIDs[i] || tail[i].Total != wantTotals[i] {
			t.Errorf("tail[%d] = (req %d, %v), want (req %d, %v)",
				i, tail[i].ReqID, tail[i].Total, wantIDs[i], wantTotals[i])
		}
	}
}

// TestAuditArgmin checks mis-dispatch grading: ties broken toward the
// lowest worker index, tie choices never counted as mis-dispatches, and
// the excess equal to the backlog gap against the true best worker.
func TestAuditArgmin(t *testing.T) {
	c := New(Config{})

	// Truth [5 3 3]: workers 1 and 2 tie for best; 1 is canonical.
	c.Audit(Decision{ReqID: 1, Chosen: 1, Truth: []int64{5, 3, 3}})
	c.Audit(Decision{ReqID: 2, Chosen: 2, Truth: []int64{5, 3, 3}}) // tie: optimal
	c.Audit(Decision{ReqID: 3, Chosen: 0, Truth: []int64{5, 3, 3},
		Informed: true, Estimate: 4, EstimateAge: 100}) // mis by 2ns

	s := c.AuditSummary()
	if s.Decisions != 3 || s.Informed != 1 {
		t.Errorf("decisions/informed = %d/%d, want 3/1", s.Decisions, s.Informed)
	}
	if s.MisDispatches != 1 {
		t.Errorf("mis-dispatches = %d, want 1 (ties are optimal)", s.MisDispatches)
	}
	if want := 1.0 / 3.0; s.MisRate != want {
		t.Errorf("mis rate = %v, want %v", s.MisRate, want)
	}
	if s.MeanExcess != 2 || s.TotalExcess != 2 {
		t.Errorf("excess mean/total = %v/%v, want 2ns/2ns", s.MeanExcess, s.TotalExcess)
	}
	if s.MeanStaleness != 100 {
		t.Errorf("mean staleness = %v, want 100ns", s.MeanStaleness)
	}
	// Estimate 4 vs truth 5 → |error| 1ns.
	if s.MeanEstimateError != 1 {
		t.Errorf("mean estimate error = %v, want 1ns", s.MeanEstimateError)
	}
}

// TestAuditSampleRetention: samples are retained up to the configured
// bound, in decision order, with cumulative counters.
func TestAuditSampleRetention(t *testing.T) {
	c := New(Config{AuditSamples: 2})
	for i := 0; i < 4; i++ {
		c.Audit(Decision{At: sim.Time(i), Chosen: 1, Truth: []int64{0, 5}})
	}
	samples := c.AuditSamples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2 (bounded)", len(samples))
	}
	if samples[1].Decisions != 2 || samples[1].MisDispatches != 2 {
		t.Errorf("sample[1] counters = %d/%d, want 2/2",
			samples[1].Decisions, samples[1].MisDispatches)
	}
	if samples[1].Excess != 5 {
		t.Errorf("sample[1] excess = %v, want 5ns", samples[1].Excess)
	}
}

// TestDropClosesRecord: a dropped request leaves no in-flight state, does
// not count as completed, and is tallied under its reason.
func TestDropClosesRecord(t *testing.T) {
	c := New(Config{})
	c.Arrive(0, 1, 1000)
	c.Ingress(10, 1)
	c.Drop(20, 1, trace.DropQueueCap)
	c.Respond(30, 1) // stale respond after drop must be ignored

	if c.Completed() != 0 {
		t.Errorf("Completed = %d, want 0", c.Completed())
	}
	if got := c.DropCount(trace.DropQueueCap); got != 1 {
		t.Errorf("DropCount(queue-cap) = %d, want 1", got)
	}
	if got := c.DropCount(trace.DropTimeout); got != 0 {
		t.Errorf("DropCount(timeout) = %d, want 0", got)
	}
}

// TestNilCollector: every hook and accessor must be a no-op on a nil
// receiver — the zero-overhead-off contract systems rely on to call hooks
// unconditionally.
func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Arrive(0, 1, 1000)
	c.Ingress(1, 1)
	c.Enqueue(2, 1)
	c.Dispatch(3, 1)
	c.HostArrive(4, 1)
	c.Start(5, 1)
	c.Preempt(6, 1)
	c.Complete(7, 1)
	c.Respond(8, 1)
	c.Drop(9, 1, trace.DropQueueCap)
	c.Audit(Decision{Chosen: 0, Truth: []int64{1}})

	if c.Completed() != 0 || c.DropCount(trace.DropQueueCap) != 0 {
		t.Error("nil collector reported non-zero counts")
	}
	if got := c.AuditSummary(); got != (AuditSummary{}) {
		t.Errorf("nil AuditSummary = %+v, want zero", got)
	}
	if c.Tail() != nil || c.Timelines() != nil || c.PhaseStats() != nil || c.Waterfall() != nil {
		t.Error("nil collector returned non-nil views")
	}
	if got := c.TruthScratch(3); got != nil {
		t.Errorf("nil TruthScratch = %v, want nil (no audit to scan for)", got)
	}
	if got := c.AuditSamples(); got != nil {
		t.Errorf("nil AuditSamples = %v, want nil", got)
	}
}

// TestPhaseStatsShares: mean shares across phases sum to 1 and the
// host-queue share reflects where the time actually went.
func TestPhaseStatsShares(t *testing.T) {
	c := New(Config{TailK: 4})
	// Two requests: 1000ns host-queue + 1000ns service each, nothing else.
	for id := uint64(1); id <= 2; id++ {
		c.Arrive(0, id, 1000)
		c.Ingress(0, id)
		c.Enqueue(0, id)
		c.Dispatch(0, id)
		c.HostArrive(0, id)
		c.Start(1000, id)
		c.Complete(2000, id)
		c.Respond(2000, id)
	}
	stats := c.PhaseStats()
	var meanShare, tailShare float64
	for _, ps := range stats {
		meanShare += ps.MeanShare
		tailShare += ps.TailShare
	}
	if meanShare < 0.999 || meanShare > 1.001 {
		t.Errorf("mean shares sum to %v, want 1", meanShare)
	}
	if tailShare < 0.999 || tailShare > 1.001 {
		t.Errorf("tail shares sum to %v, want 1", tailShare)
	}
	if got := stats[PhaseHostQueue].MeanShare; got < 0.499 || got > 0.501 {
		t.Errorf("host-queue mean share = %v, want 0.5", got)
	}
	if got := stats[PhaseHostQueue].Mean; got != 1000 {
		t.Errorf("host-queue mean = %v, want 1000ns", got)
	}
}
