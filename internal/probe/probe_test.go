package probe

import (
	"strings"
	"testing"

	"mindgap/internal/attr"
	"mindgap/internal/stats"
	"mindgap/internal/trace"
)

// TestNilAndBareProbes: a nil probe and a probe with no consumers accept
// the whole stream; only the bare one counts drops.
func TestNilAndBareProbes(t *testing.T) {
	for _, p := range []*Probe{nil, {}} {
		p.Arrive(0, 1, 1000)
		p.Ingress(1, 1)
		p.Enqueue(2, 1)
		p.Dispatch(3, 1, 0)
		p.HostArrive(4, 1)
		p.Start(5, 1, 0)
		p.Preempt(6, 1, 0)
		p.Complete(7, 1, 0)
		p.Respond(8, 1)
		p.Drop(9, 2, -1, trace.DropQueueCap)
		if p.AuditTruth(4) != nil {
			t.Error("AuditTruth without a collector must be nil: there is nothing to scan for")
		}
	}
	bare := &Probe{}
	bare.Drop(0, 1, -1, trace.DropQueueCap)
	bare.Drop(0, 2, 3, trace.DropTimeout)
	if bare.Drops(trace.DropQueueCap) != 1 || bare.Drops(trace.DropTimeout) != 1 || bare.Dropped() != 2 {
		t.Errorf("bare probe counts: queue-cap %d timeout %d total %d", bare.Drops(trace.DropQueueCap), bare.Drops(trace.DropTimeout), bare.Dropped())
	}
}

// TestOneCallFeedsEveryConsumer: a lifecycle with a preemption, and a
// drop, reach the recorder, the trace and the collector from single calls.
func TestOneCallFeedsEveryConsumer(t *testing.T) {
	rec := &stats.Recorder{}
	rec.Arm(0)
	p := &Probe{Rec: rec, Trace: trace.New(0), Attr: attr.New(attr.Config{})}

	p.Arrive(0, 1, 300)
	p.Ingress(100, 1)
	p.Enqueue(150, 1)
	p.Dispatch(200, 1, 2)
	p.HostArrive(250, 1)
	p.Start(300, 1, 2)
	p.Preempt(500, 1, 2)
	p.Enqueue(520, 1)
	p.Dispatch(530, 1, 0)
	p.HostArrive(540, 1)
	p.Start(550, 1, 0)
	p.Complete(650, 1, 0)
	p.Respond(700, 1)
	p.Arrive(10, 2, 300)
	p.Drop(20, 2, -1, trace.DropQueueCap)

	if rec.Preemptions() != 1 || rec.Dropped() != 1 {
		t.Errorf("recorder: %d preemptions, %d drops; want 1, 1", rec.Preemptions(), rec.Dropped())
	}
	if err := p.Trace.ValidateAll(); err != nil {
		t.Error(err)
	}
	if got := len(p.Trace.Lifecycle(1)); got != 11 {
		t.Errorf("request 1 traced %d events, want 11 (HostArrive has no trace event)", got)
	}
	last := p.Trace.Lifecycle(2)[1]
	if last.Kind != trace.Drop || last.Reason != trace.DropQueueCap {
		t.Errorf("request 2 ends with %v, want a queue-cap drop", last)
	}
	if p.Attr.Completed() != 1 || p.Attr.DropCount(trace.DropQueueCap) != 1 || p.Drops(trace.DropQueueCap) != 1 {
		t.Errorf("collector: %d completed, %d queue-cap drops; probe %d", p.Attr.Completed(),
			p.Attr.DropCount(trace.DropQueueCap), p.Drops(trace.DropQueueCap))
	}
	truth := p.AuditTruth(3)
	if len(truth) != 3 {
		t.Fatalf("AuditTruth(3) = %v with a collector attached", truth)
	}
	truth[0], truth[1], truth[2] = 500, 0, 200
	p.Audit(attr.Decision{At: 200, ReqID: 1, Chosen: 0, Truth: truth})
	if a := p.Attr.AuditSummary(); a.Decisions != 1 || a.MisDispatches != 1 {
		t.Errorf("audit: %+v, want one graded mis-dispatch", a)
	}
}

// TestConserveEngineBound: the engine equation is exact at its bound. A
// halted run may hold its watchdog, one event per open request and the
// system's own events, plus one pending arrival per self-timed generator;
// a pulled stream adds none, as its next request is already open on the
// system's front. One event past the bound breaks the equation.
func TestConserveEngineBound(t *testing.T) {
	l := Ledger{Arrived: 5, Responded: 2, Events: 3} // 3 open
	for _, streams := range []int{0, 1} {
		h := Halt{Generated: 5, Done: 2, Streams: streams, Pool: -1, FlowPool: -1}
		h.Pending = streams + 1 + 3 + 3
		if err := Conserve(l, h); err != nil {
			t.Errorf("%d self-timed streams, pending at the bound: %v", streams, err)
		}
		h.Pending++
		if err := Conserve(l, h); err == nil || !strings.Contains(err.Error(), "audit: engine broken") {
			t.Errorf("%d self-timed streams, one event past the bound: %v, want the engine equation broken", streams, err)
		}
	}
}
