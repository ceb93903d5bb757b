package core

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/faults"
	"mindgap/internal/task"
)

// The table's five situations for request 1, each built with a budget of
// one retry; tok/wk name the attempt the input under test claims to be from.
var recoverySetups = []struct {
	name    string
	build   func(r *Recovery[int, int])
	tok, wk int
}{
	{"believed-live", func(r *Recovery[int, int]) {
		r.Dispatched(1, 10, 0)
	}, 10, 0},
	{"superseded", func(r *Recovery[int, int]) { // attempt 10 expired; 11 is live on the same worker
		r.Dispatched(1, 10, 0)
		r.Expired(1, 10, 0)
		r.Dispatched(1, 11, 0)
	}, 10, 0},
	{"unknown", func(r *Recovery[int, int]) {}, 10, 0},
	{"queued-after-preempt", func(r *Recovery[int, int]) {
		r.Dispatched(1, 10, 0)
		r.Preempted(1, 10, 0)
	}, 10, 0},
	{"budget-exhausted", func(r *Recovery[int, int]) { // the live attempt is the last the budget allows
		r.Dispatched(1, 10, 0)
		r.Expired(1, 10, 0)
		r.Dispatched(1, 11, 1)
	}, 11, 1},
}

// state is a record as the table states it; the zero value means no record.
type state struct {
	held      bool
	token     int
	worker    int32
	ordinal   int32
	responded bool
}

func stateOf(r *Recovery[int, int], k int) state {
	a, ok := r.recs[k]
	if !ok {
		return state{}
	}
	return state{true, a.token, a.worker, a.ordinal, a.responded}
}

// TestRecoveryTable pins every input in every situation: the verdict, and
// the record it leaves behind.
func TestRecoveryTable(t *testing.T) {
	type outcome struct {
		v     Verdict
		after state
	}
	none := state{}
	live1 := state{true, 11, 0, 1, false}        // attempt 11 live on worker 0 after one retry
	queued0 := state{true, 10, queued, 0, false} // attempt 10 preempted, back in the queue
	inputs := []struct {
		name  string
		apply func(r *Recovery[int, int], tok, wk int) Verdict
		want  [5]outcome // by recoverySetups index
	}{
		{"Finish", func(r *Recovery[int, int], tok, wk int) Verdict {
			v, _ := r.Finish(1, tok, wk)
			return v
		}, [5]outcome{
			{Accept, none}, // attempt 0 finished: nothing can answer twice, nothing is kept
			{Stale, live1},
			{Stale, none},
			{Stale, queued0},
			{Accept, state{true, 11, closed, 1, false}}, // attempt 10 may still answer: a stub stays
		}},
		{"Preempted", func(r *Recovery[int, int], tok, wk int) Verdict {
			v, _ := r.Preempted(1, tok, wk)
			return v
		}, [5]outcome{
			{Accept, queued0},
			{Stale, live1},
			{Stale, none},
			{Stale, queued0},
			{Accept, state{true, 11, queued, 1, false}},
		}},
		{"Expired", func(r *Recovery[int, int], tok, wk int) Verdict {
			v, _ := r.Expired(1, tok, wk)
			return v
		}, [5]outcome{
			{Retry, state{true, 10, queued, 1, false}},
			{Stale, live1},
			{Stale, none},
			{Stale, queued0},
			{Abandon, state{true, 11, closed, 1, true}}, // no response may get through any more
		}},
		{"Responded", func(r *Recovery[int, int], _, _ int) Verdict {
			return r.Responded(1)
		}, [5]outcome{
			{Accept, state{true, 10, 0, 0, true}},
			{Accept, state{true, 11, 0, 1, true}}, // whichever attempt answers first wins
			{Accept, none},                        // nothing known: nothing to dedupe against
			{Accept, state{true, 10, queued, 0, true}},
			{Accept, state{true, 11, 1, 1, true}},
		}},
		{"Dispatched", func(r *Recovery[int, int], _, _ int) Verdict {
			r.Dispatched(1, 20, 1)
			return Accept
		}, [5]outcome{
			{Accept, state{true, 20, 1, 0, false}},
			{Accept, state{true, 20, 1, 1, false}},
			{Accept, state{true, 20, 1, 0, false}},
			{Accept, state{true, 20, 1, 0, false}}, // the preempted attempt goes on: same ordinal
			{Accept, state{true, 20, 1, 1, false}},
		}},
	}
	for _, in := range inputs {
		for i, su := range recoverySetups {
			r := NewRecovery[int, int](1, true)
			su.build(r)
			v := in.apply(r, su.tok, su.wk)
			if got := stateOf(r, 1); v != in.want[i].v || got != in.want[i].after {
				t.Errorf("%s on %s: verdict %d, record %+v; want %d, %+v",
					in.name, su.name, v, got, in.want[i].v, in.want[i].after)
			}
		}
	}
}

// TestRecoveryWrongWorkerIsStale: the believed-live attempt is a token on
// a worker; the right token from anywhere else — a confused worker, or an
// expiry armed for an earlier dispatch of the same attempt elsewhere — does
// not count.
func TestRecoveryWrongWorkerIsStale(t *testing.T) {
	r := NewRecovery[int, int](1, true)
	r.Dispatched(1, 10, 0)
	for name, in := range map[string]func(int, int, int) (Verdict, int){
		"Finish": r.Finish, "Preempted": r.Preempted, "Expired": r.Expired,
	} {
		if v, slot := in(1, 10, 1); v != Stale || slot != -1 {
			t.Errorf("%s from worker 1: verdict %d slot %d", name, v, slot)
		}
		if v, _ := in(1, 10, -1); v != Stale {
			t.Errorf("%s from worker -1: verdict %d", name, v)
		}
	}
	if got := stateOf(r, 1); got != (state{true, 10, 0, 0, false}) {
		t.Fatalf("stale inputs changed the record: %+v", got)
	}
}

// TestRecoveryDedupeLifetime follows the responded bit through the three
// ways a record ends, and checks that without dedupe nothing lingers.
func TestRecoveryDedupeLifetime(t *testing.T) {
	r := NewRecovery[int, int](1, true)
	// Retried then finished: both attempts answer, the second is refused.
	r.Dispatched(1, 10, 0)
	r.Expired(1, 10, 0)
	r.Dispatched(1, 11, 1)
	r.Finish(1, 11, 1)
	if v := r.Responded(1); v != Accept {
		t.Fatalf("first response after a retried finish: %d", v)
	}
	if v := r.Responded(1); v != Duplicate {
		t.Fatalf("second response after a retried finish: %d", v)
	}
	// Abandoned: even the first response is refused.
	r.Dispatched(2, 20, 0)
	r.Expired(2, 20, 0)
	r.Dispatched(2, 21, 0)
	if v, _ := r.Expired(2, 21, 0); v != Abandon {
		t.Fatalf("second expiry: %d, want Abandon", v)
	}
	if v := r.Responded(2); v != Duplicate {
		t.Fatalf("response after abandon: %d", v)
	}
	// Answered, then the FINISH was lost and the retry answers again.
	r.Dispatched(3, 30, 0)
	r.Responded(3)
	r.Expired(3, 30, 0)
	r.Dispatched(3, 31, 0)
	if v := r.Responded(3); v != Duplicate {
		t.Fatalf("retry's response after the original's: %d", v)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want the three requests with a superseded or abandoned attempt", r.Len())
	}
	// A reused key starts over, stub or not.
	if _, ord := r.Dispatched(2, 22, 0); ord != 0 || r.Responded(2) != Accept {
		t.Fatal("a closed stub leaked into the next request under its key")
	}
	// Answered, the FINISH lost, the budget spent: the last expiry is the
	// lost FINISH's stand-in, accepted, not an abandon of an answered request.
	r.Dispatched(4, 40, 0)
	r.Expired(4, 40, 0)
	r.Dispatched(4, 41, 0)
	r.Responded(4)
	if v, _ := r.Expired(4, 41, 0); v != Accept || r.Responded(4) != Duplicate {
		t.Fatalf("last expiry of an answered request: %d, want Accept and the stub kept", v)
	}

	bare := NewRecovery[int, int](0, false)
	bare.Dispatched(1, 10, 0)
	if v, _ := bare.Expired(1, 10, 0); v != Abandon || bare.Len() != 0 {
		t.Fatalf("without dedupe an abandoned request left %d records (verdict %d)", bare.Len(), v)
	}
}

// TestRecoverySlots: a record keeps one slot for all its attempts, a retired
// record's slot is the next one handed out, and slots stay dense.
func TestRecoverySlots(t *testing.T) {
	r := NewRecovery[int, int](1, true)
	s1, _ := r.Dispatched(1, 10, 0)
	s2, _ := r.Dispatched(2, 20, 1)
	if s1 != 0 || s2 != 1 {
		t.Fatalf("first slots = %d, %d", s1, s2)
	}
	r.Preempted(1, 10, 0)
	if s, _ := r.Dispatched(1, 10, 1); s != s1 {
		t.Fatalf("re-dispatch moved to slot %d", s)
	}
	if _, s := r.Expired(1, 10, 1); s != s1 {
		t.Fatalf("Expired reported slot %d", s)
	}
	if s, ord := r.Dispatched(1, 11, 0); s != s1 || ord != 1 {
		t.Fatalf("retry got slot %d ordinal %d", s, ord)
	}
	r.Finish(2, 20, 1)
	if s, _ := r.Dispatched(3, 30, 1); s != s2 {
		t.Fatalf("freed slot %d not reused: got %d", s2, s)
	}
	if s, _ := r.Dispatched(4, 40, 1); s != 2 {
		t.Fatalf("next fresh slot = %d, want 2", s)
	}
}

// TestRecoveryPreemptedOvertakesExpiry is the interleaving Offload.expired's
// comment describes and no checked-in run reaches. A PREEMPTED sits in the
// dispatcher's ring ahead of the expiry of the same dispatch: it is handled
// first, the request is dispatched again — same attempt, same worker — and
// then the old expiry is handled. It names (token, worker) of the believed-
// live attempt, so Recovery takes it for the new dispatch's own: a premature
// Retry. That is safe (the protocol tolerates any false timeout) but early;
// telling dispatches of one attempt apart needs a per-dispatch token.
func TestRecoveryPreemptedOvertakesExpiry(t *testing.T) {
	lgc := NewLogic(1, 1, LeastOutstanding)
	rec := NewRecovery[uint64, *task.Request](1, true)
	tok := req(1)

	as := lgc.EnqueueTo(nil, 0, tok)
	rec.Dispatched(1, tok, as[0].Worker)
	// The slice ends, the dispatch timer fires: PREEMPTED, then the expiry,
	// are now both queued for the dispatcher.
	if v, _ := rec.Preempted(1, tok, 0); v != Accept {
		t.Fatalf("PREEMPTED: %d", v)
	}
	as = lgc.PreemptedTo(nil, 0, 0, tok)
	if len(as) != 1 || as[0].Worker != 0 {
		t.Fatalf("re-dispatch = %+v", as)
	}
	rec.Dispatched(1, tok, 0)
	v, _ := rec.Expired(1, tok, 0)
	if v != Retry {
		t.Fatalf("the overtaken expiry: %d; a per-dispatch token would make it Stale — update this test and DESIGN.md", v)
	}
	// The premature retry is still a correct one: credit reclaimed, a fresh
	// attempt queued, and the attempt it superseded can no longer be acked.
	fresh := req(1)
	as = lgc.EnqueueTo(lgc.CompleteTo(nil, 0), 0, fresh)
	if len(as) != 1 || lgc.Outstanding(0) != 1 {
		t.Fatalf("after the retry: assignments %+v, outstanding %d", as, lgc.Outstanding(0))
	}
	rec.Dispatched(1, fresh, 0)
	if v, _ := rec.Finish(1, tok, 0); v != Stale {
		t.Fatalf("FINISH from the superseded attempt: %d", v)
	}
	if v, _ := rec.Finish(1, fresh, 0); v != Accept {
		t.Fatalf("FINISH from the retry: %d", v)
	}
}

// TestRecoveryRecordsBounded runs the figure-faults-lossyfabric series-1
// point (knobs and fault block read from the preset) and holds Recovery to
// its memory promise: a record outlives its request only if the request was
// retried or abandoned — a late response may still need refusing — so at
// halt the machine holds at most what is in flight plus those, not one
// entry per request served, which is what the responded map it replaced
// grew to.
func TestRecoveryRecordsBounded(t *testing.T) {
	raw, err := os.ReadFile("../../scenarios/figure-faults-lossyfabric.json")
	if err != nil {
		t.Fatal(err)
	}
	var preset struct {
		Seed   uint64
		Series []struct {
			Knobs  struct{ Workers, Outstanding int }
			Faults *faults.Spec
		}
	}
	if err := json.Unmarshal(raw, &preset); err != nil {
		t.Fatal(err)
	}
	sr := preset.Series[1]
	cfg := defaultCfg(sr.Knobs.Workers, sr.Knobs.Outstanding, 10*time.Microsecond)
	cfg.FaultSpec, cfg.FaultSeed = sr.Faults, preset.Seed
	const served = 8000
	_, sys, _ := runOffload(t, cfg, 300_000,
		dist.Bimodal{P1: 0.995, D1: 5 * time.Microsecond, D2: 100 * time.Microsecond}, served)
	if sys.Retries() == 0 {
		t.Fatal("the lossy point retried nothing: it no longer exercises Recovery")
	}
	inFlight := sys.QueueLen() + sr.Knobs.Workers*sr.Knobs.Outstanding
	if got, bound := sys.rec.Len(), inFlight+int(sys.Retries()+sys.TimeoutDrops()); got > bound {
		t.Fatalf("%d records at halt > %d in flight + %d retried + %d abandoned",
			got, inFlight, sys.Retries(), sys.TimeoutDrops())
	}
	t.Logf("%d records at halt (in flight <= %d, retried %d, abandoned %d) after %d requests",
		sys.rec.Len(), inFlight, sys.Retries(), sys.TimeoutDrops(), served)
}
