package core

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mindgap/internal/queue"
	"mindgap/internal/task"
)

// This file is a small-scope model checker for Logic + Recovery: a world of
// one dispatcher (the two machines, glued exactly as their verdict docs
// say), a few workers, a client, and a network an adversary controls. The
// explorer walks every reachable state by DFS with state hashing and checks
// the protocol's invariants on each; the quick test samples much longer runs
// of a bigger world at random; named traces pin the counterexamples.

// xkind is a kind of in-flight message. ASSIGN, FINISH and PREEMPTED cross
// the NIC↔host gap and belong to the adversary (drop, duplicate, delay,
// reorder). An expiry is a fired dispatch timer on its way through the
// queue manager's ring: it can be delayed and reordered but is never lost.
// A response is not modelled in flight: the client gets it the moment the
// worker finishes, which loses nothing, because the worker may finish at
// any moment and Responded reads only what the dispatcher has done so far.
type xkind uint8

const (
	xAssign xkind = iota
	xFinish
	xPreempted
	xExpiry
)

var xkindNames = [...]string{"ASSIGN", "FINISH", "PREEMPTED", "expiry"}

// xframe is one in-flight message: about attempt att (an index into
// xscope.atts), to or from worker.
type xframe struct {
	kind   xkind
	att    int8
	worker int8
}

func (f xframe) less(g xframe) bool {
	if f.kind != g.kind {
		return f.kind < g.kind
	}
	if f.att != g.att {
		return f.att < g.att
	}
	return f.worker < g.worker
}

// xop is a kind of step.
type xop uint8

const (
	opArrive  xop = iota // the client injects the next request
	opDeliver            // an in-flight message reaches its destination
	opDrop               // the adversary eats an ASSIGN/FINISH/PREEMPTED
	opDup                // the adversary duplicates one
	opFinish             // a worker completes an attempt it holds
	opPreempt            // a worker preempts an attempt it holds
	opFire               // an armed dispatch timer fires
)

var xopNames = [...]string{"arrive", "deliver", "drop", "dup", "finish", "preempt", "fire"}

// xstep is one step: op on frame f (deliver/drop/dup), on the attempt f.att
// held by f.worker (finish/preempt), or on the timer of slot f.att (fire).
type xstep struct {
	op xop
	f  xframe
}

func (s xstep) String() string {
	switch s.op {
	case opArrive:
		return "arrive"
	case opFire:
		return fmt.Sprintf("fire(slot %d)", s.f.att)
	case opFinish, opPreempt:
		return fmt.Sprintf("%s(w%d, att %d)", xopNames[s.op], s.f.worker, s.f.att)
	}
	return fmt.Sprintf("%s(%s att %d w%d)", xopNames[s.op], xkindNames[s.f.kind], s.f.att, s.f.worker)
}

// xscope bounds a world and owns what its states share.
type xscope struct {
	workers, k, requests, retries int
	// Adversary and worker budgets for one walk; drops < 0 is unbounded.
	drops, dups, preempts int
	// atts[(id-1)*(retries+1)+ordinal] is request id's attempt object: the
	// original for ordinal 0, the retry clones after. Logic never reads
	// more than ID from them, so every state shares them.
	atts []*task.Request
}

func newScope(workers, k, requests, retries, drops, dups, preempts int) *xscope {
	sc := &xscope{workers: workers, k: k, requests: requests, retries: retries,
		drops: drops, dups: dups, preempts: preempts}
	for id := 1; id <= requests; id++ {
		for o := 0; o <= retries; o++ {
			r := task.New(uint64(id), 0, time.Microsecond)
			r.Key = uint64(o)
			sc.atts = append(sc.atts, r)
		}
	}
	return sc
}

func (sc *xscope) att(r *task.Request) int8 {
	return int8((int(r.ID)-1)*(sc.retries+1) + int(r.Key))
}

// xtimer is the transport slot of one Recovery record: whether its dispatch
// timer is armed and what it guards.
type xtimer struct {
	armed  bool
	att    int8
	worker int8
}

// world is one state.
type world struct {
	sc  *xscope
	lgc *Logic
	rec *Recovery[uint64, *task.Request]

	arrived int
	net     []xframe // sorted: the network is a multiset
	held    [][]int8 // per worker: its ring, attempts received and not yet run
	timers  []xtimer // by Recovery slot
	resp    []int8   // per request: responses the client accepted
	drops   []int8   // per request: counted drops
	expired []int8   // per request: expiries answered Retry or Abandon
	done    []bool   // per request: FINISH accepted or abandoned
	// Budgets left.
	nDrop, nDup, nPreempt int
}

func newWorld(sc *xscope) *world {
	return &world{
		sc:  sc,
		lgc: NewLogic(sc.workers, sc.k, LeastOutstanding),
		rec: NewRecovery[uint64, *task.Request](sc.retries, true),

		held:    make([][]int8, sc.workers),
		resp:    make([]int8, sc.requests+1),
		drops:   make([]int8, sc.requests+1),
		expired: make([]int8, sc.requests+1),
		done:    make([]bool, sc.requests+1),
		nDrop:   sc.drops, nDup: sc.dups, nPreempt: sc.preempts,
	}
}

// clone deep-copies everything a step can change.
func (w *world) clone() *world {
	c := *w
	l := *w.lgc
	l.outstanding = slices.Clone(l.outstanding)
	l.classes = make([]queue.FIFO[*task.Request], len(w.lgc.classes))
	for i := range w.lgc.classes {
		w.lgc.classes[i].Do(func(r *task.Request) { l.classes[i].Push(r) })
	}
	c.lgc = &l
	r := *w.rec
	r.recs = make(map[uint64]attempt[*task.Request], len(w.rec.recs))
	for k, a := range w.rec.recs {
		r.recs[k] = a
	}
	r.free = slices.Clone(r.free)
	c.rec = &r
	c.net = slices.Clone(w.net)
	c.held = make([][]int8, len(w.held))
	for i := range w.held {
		c.held[i] = slices.Clone(w.held[i])
	}
	c.timers = slices.Clone(w.timers)
	c.resp = slices.Clone(w.resp)
	c.drops = slices.Clone(w.drops)
	c.expired = slices.Clone(w.expired)
	c.done = slices.Clone(w.done)
	return &c
}

func (w *world) send(f xframe) {
	i := sort.Search(len(w.net), func(i int) bool { return !w.net[i].less(f) })
	w.net = slices.Insert(w.net, i, f)
}

func (w *world) take(f xframe) {
	i := slices.Index(w.net, f)
	if i < 0 {
		panic(fmt.Sprintf("explore: %v not in flight", f))
	}
	w.net = slices.Delete(w.net, i, i+1)
}

// dispatch is the transport's half of an assignment: tell Recovery, arm the
// slot's timer, send the ASSIGN.
func (w *world) dispatch(as []Assignment) {
	for _, a := range as {
		slot, _ := w.rec.Dispatched(a.Req.ID, a.Req, a.Worker)
		if slot == len(w.timers) {
			w.timers = append(w.timers, xtimer{})
		}
		w.timers[slot] = xtimer{armed: true, att: w.sc.att(a.Req), worker: int8(a.Worker)}
		w.send(xframe{xAssign, w.sc.att(a.Req), int8(a.Worker)})
	}
}

// deliver hands f to its destination: a worker's ring, the client, or the
// dispatcher, which makes the Logic call Recovery's verdict names.
func (w *world) deliver(f xframe) {
	req, wk := w.sc.atts[f.att], int(f.worker)
	id := req.ID
	switch f.kind {
	case xAssign:
		w.held[wk] = append(w.held[wk], f.att)
	case xFinish:
		if v, slot := w.rec.Finish(id, req, wk); v == Accept {
			w.timers[slot].armed = false
			w.done[id] = true
			w.dispatch(w.lgc.CompleteTo(nil, wk))
		}
	case xPreempted:
		if v, slot := w.rec.Preempted(id, req, wk); v == Accept {
			w.timers[slot].armed = false
			w.dispatch(w.lgc.PreemptedTo(nil, 0, wk, req))
		}
	case xExpiry:
		switch v, slot := w.rec.Expired(id, req, wk); v {
		case Abandon, Accept: // Accept: answered already, only the FINISH was lost
			w.expired[id]++
			w.timers[slot].armed = false
			if v == Abandon {
				w.drops[id]++
			}
			w.done[id] = true
			w.dispatch(w.lgc.CompleteTo(nil, wk))
		case Retry:
			w.expired[id]++
			as := w.lgc.CompleteTo(nil, wk)
			fresh := w.sc.atts[int(f.att)-int(req.Key)+w.rec.Attempt(id)]
			w.dispatch(w.lgc.EnqueueTo(as, 0, fresh))
		}
	}
}

// apply takes one step. A panic inside Logic (credit underflow) is the
// caller's to catch.
func (w *world) apply(s xstep) {
	switch s.op {
	case opArrive:
		w.arrived++
		w.dispatch(w.lgc.EnqueueTo(nil, 0, w.sc.atts[(w.arrived-1)*(w.sc.retries+1)]))
	case opDeliver:
		w.take(s.f)
		w.deliver(s.f)
	case opDrop:
		w.take(s.f)
		w.nDrop--
	case opDup:
		w.send(s.f)
		w.nDup--
	case opFinish, opPreempt:
		w.held[s.f.worker] = w.held[s.f.worker][1:]
		if s.op == opPreempt {
			w.nPreempt--
			w.send(xframe{xPreempted, s.f.att, s.f.worker})
			return
		}
		// The worker answers the client, then notifies the dispatcher.
		if id := w.sc.atts[s.f.att].ID; w.rec.Responded(id) == Accept {
			w.resp[id]++
		}
		w.send(xframe{xFinish, s.f.att, s.f.worker})
	case opFire:
		t := &w.timers[s.f.att]
		t.armed = false
		w.send(xframe{xExpiry, t.att, t.worker})
	}
}

// steps lists every enabled step, adversary moves last. progress reports
// whether the system can move without the adversary or a new arrival.
func (w *world) steps(out []xstep) (_ []xstep, progress bool) {
	for i, f := range w.net {
		if i == 0 || f != w.net[i-1] {
			out = append(out, xstep{opDeliver, f})
		}
	}
	for wk, h := range w.held {
		if len(h) == 0 {
			continue // a worker serves its ring in order: only the head can run
		}
		out = append(out, xstep{opFinish, xframe{att: h[0], worker: int8(wk)}})
		if w.nPreempt > 0 {
			out = append(out, xstep{opPreempt, xframe{att: h[0], worker: int8(wk)}})
		}
	}
	for slot, t := range w.timers {
		if t.armed {
			out = append(out, xstep{opFire, xframe{att: int8(slot)}})
		}
	}
	progress = len(out) > 0
	if w.arrived < w.sc.requests {
		out = append(out, xstep{op: opArrive})
	}
	for i, f := range w.net {
		if f.kind > xPreempted || (i > 0 && f == w.net[i-1]) {
			continue
		}
		if w.nDrop != 0 {
			out = append(out, xstep{opDrop, f})
		}
		if w.nDup > 0 {
			out = append(out, xstep{opDup, f})
		}
	}
	return out, progress
}

// hash folds everything that distinguishes two states into 64 bits.
func (w *world) hash() uint64 {
	b := make([]byte, 0, 128)
	put := func(vs ...int) {
		for _, v := range vs {
			b = append(b, byte(v))
		}
	}
	put(w.arrived, w.nDrop, w.nDup, w.nPreempt, w.lgc.rrNext)
	put(w.lgc.outstanding...)
	w.lgc.classes[0].Do(func(r *task.Request) { put(int(w.sc.att(r))) })
	put(0xfe, int(w.rec.slots))
	for _, s := range w.rec.free {
		put(int(s))
	}
	for id := 1; id <= w.sc.requests; id++ {
		a, ok := w.rec.recs[uint64(id)]
		put(0xfd, int(w.resp[id]), int(w.drops[id]), int(w.expired[id]))
		if ok {
			put(int(w.sc.att(a.token)), int(a.worker)+2, int(a.slot), int(a.ordinal))
		}
		if ok && a.responded {
			put(1)
		}
		if w.done[id] {
			put(2)
		}
	}
	put(0xfc)
	for _, f := range w.net {
		put(int(f.kind), int(f.att), int(f.worker))
	}
	for _, h := range w.held {
		put(0xfb)
		for _, a := range h {
			put(int(a))
		}
	}
	for _, t := range w.timers {
		put(0xfa, int(t.att), int(t.worker))
		if t.armed {
			put(1)
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// The invariants, by name. check returns the ones a state breaks.
const (
	invCredits  = "0 <= outstanding[w] <= k, and each credit covers one believed-live attempt"
	invCovered  = "each request is queued, or covered by exactly one believed-live attempt, or terminal"
	invResponse = "the client sees at most one response per request"
	invLost     = "nothing is lost without a counted drop"
	invStuck    = "no stuck state while a request is non-terminal"
	invHeld     = "a worker holds at most k attempts plus superseded ones, each of the k under a credit"
)

func (w *world) check(progress bool) (broken []string) {
	fail := func(inv string) {
		if !slices.Contains(broken, inv) {
			broken = append(broken, inv)
		}
	}
	queuedAtts := make([]int, w.sc.requests+1)
	w.lgc.classes[0].Do(func(r *task.Request) { queuedAtts[r.ID]++ })
	believed := make([]int, w.sc.workers)
	for id := 1; id <= w.arrived; id++ {
		a, ok := w.rec.recs[uint64(id)]
		switch {
		case w.done[id]: // terminal: nothing queued, no live record
			if queuedAtts[id] != 0 || (ok && a.worker != closed) {
				fail(invCovered)
			}
			// Accounted for: answered, or a counted drop.
			if w.resp[id] == 0 && w.drops[id] == 0 {
				fail(invLost)
			}
		case ok && a.worker >= 0: // dispatched: the record's attempt, nothing queued
			believed[a.worker]++
			if queuedAtts[id] != 0 {
				fail(invCovered)
			}
		default: // queued: exactly one attempt, the one Recovery expects
			if queuedAtts[id] != 1 || (ok && a.worker != queued) {
				fail(invCovered)
			}
		}
		if w.resp[id] > 1 {
			fail(invResponse)
		}
		if !w.done[id] && !progress {
			fail(invStuck)
		}
	}
	for wk := 0; wk < w.sc.workers; wk++ {
		out := w.lgc.Outstanding(wk)
		if out < 0 || out > w.sc.k || out != believed[wk] {
			fail(invCredits)
		}
		// An attempt in the ring is superseded once an expiry of its
		// request answered Retry or Abandon at its ordinal or later; every
		// other one must be what a credit on this worker stands for.
		current := 0
		for _, att := range w.held[wk] {
			if req := w.sc.atts[att]; int8(req.Key) >= w.expired[req.ID] {
				current++
			}
		}
		if current > believed[wk] {
			fail(invHeld)
		}
	}
	return broken
}

// try applies s to a copy of w and checks the result; a Logic panic counts
// against invCredits.
func (w *world) try(s xstep) (next *world, broken []string) {
	next = w.clone()
	defer func() {
		if p := recover(); p != nil {
			broken = []string{invCredits + fmt.Sprintf(" (panic: %v)", p)}
		}
	}()
	next.apply(s)
	_, progress := next.steps(nil)
	return next, next.check(progress)
}

// explore walks every state reachable in sc depth-first and returns how
// many there are and, per broken invariant, the first trace that reached
// it. A state that breaks something is not expanded further.
func explore(sc *xscope) (states int, found map[string][]xstep) {
	seen := map[uint64]struct{}{}
	found = map[string][]xstep{}
	var trace []xstep
	var visit func(w *world)
	visit = func(w *world) {
		steps, _ := w.steps(nil)
		for _, s := range steps {
			next, broken := w.try(s)
			trace = append(trace, s)
			for _, inv := range broken {
				if _, ok := found[inv]; !ok {
					found[inv] = slices.Clone(trace)
				}
			}
			if h := next.hash(); len(broken) == 0 {
				if _, ok := seen[h]; !ok {
					seen[h] = struct{}{}
					visit(next)
				}
			}
			trace = trace[:len(trace)-1]
		}
	}
	root := newWorld(sc)
	seen[root.hash()] = struct{}{}
	visit(root)
	return len(seen), found
}

func traceString(tr []xstep) string {
	var sb strings.Builder
	for i, s := range tr {
		fmt.Fprintf(&sb, "\n  %2d. %v", i+1, s)
	}
	return sb.String()
}

// TestExploreRecovery is the exhaustive half: under an adversary that may
// drop, delay and reorder any ASSIGN/FINISH/PREEMPTED and fire any armed
// timer at any moment, every invariant holds on every reachable state of
// each scope. The scopes stay inside 2 workers, k = 2, 3 requests, 1 retry
// and are sized to finish in seconds: two workers racing a retry against
// the original; one worker stashing, preempting and re-dispatching the same
// attempt to itself; three requests where every expiry abandons.
func TestExploreRecovery(t *testing.T) {
	scopes := []*xscope{
		newScope(2, 1, 2, 1, 2, 0, 0),
		newScope(1, 2, 2, 1, 2, 0, 1),
		newScope(2, 2, 3, 0, 2, 0, 0),
	}
	if testing.Short() {
		scopes = scopes[:1]
	}
	start, total := time.Now(), 0
	for _, sc := range scopes {
		states, found := explore(sc)
		total += states
		t.Logf("workers=%d k=%d requests=%d retries=%d drops=%d preempts=%d: %d states",
			sc.workers, sc.k, sc.requests, sc.retries, sc.drops, sc.preempts, states)
		for inv, tr := range found {
			t.Errorf("%q broken after:%s", inv, traceString(tr))
		}
	}
	t.Logf("explored %d reachable states in %v", total, time.Since(start).Round(time.Millisecond))
}

// TestExploreDuplication is the half with a known hole: one duplicated
// frame is enough to break two of the invariants, because a worker runs
// whatever ASSIGN reaches it and Recovery forgets a request once its first
// attempt finishes. The explorer must find exactly those two and no third;
// the named traces below pin how.
func TestExploreDuplication(t *testing.T) {
	if testing.Short() {
		t.Skip("explores ~220k states")
	}
	states, found := explore(newScope(2, 1, 2, 1, 0, 1, 0))
	t.Logf("workers=2 k=1 requests=2 retries=1 dups=1: %d states short of a violation", states)
	want := []string{invResponse, invHeld}
	for inv, tr := range found {
		if !slices.Contains(want, inv) {
			t.Errorf("%q broken after:%s", inv, traceString(tr))
		}
	}
	for _, inv := range want {
		if _, ok := found[inv]; !ok {
			t.Errorf("%q no longer reachable: flip its counterexample test and tick ROADMAP", inv)
		}
	}
}

// replay runs tr from the initial state of sc and returns everything it
// broke on the way.
func replay(t *testing.T, sc *xscope, tr []xstep) (broken []string) {
	t.Helper()
	w := newWorld(sc)
	for i, s := range tr {
		enabled, _ := w.steps(nil)
		if !slices.Contains(enabled, s) {
			t.Fatalf("step %d (%v) is not enabled", i+1, s)
		}
		var b []string
		w, b = w.try(s)
		broken = append(broken, b...)
	}
	return broken
}

// TestExploreCounterexampleDuplicateAssign: a duplicated ASSIGN of a
// request's first attempt runs twice; the first FINISH retires the record
// with no stub (nothing was superseded), so Responded has no memory left
// and the second response reaches the client too. Closing it means a
// per-dispatch token or worker-side ASSIGN dedupe, either of which changes
// the simulated frames: ROADMAP item 2.
func TestExploreCounterexampleDuplicateAssign(t *testing.T) {
	assign := xframe{xAssign, 0, 0}
	broken := replay(t, newScope(1, 1, 1, 0, 0, 1, 0), []xstep{
		{op: opArrive},
		{opDup, assign},
		{opDeliver, assign},
		{opFinish, xframe{att: 0, worker: 0}},
		{opDeliver, xframe{xFinish, 0, 0}},
		{opDeliver, assign},
		{opFinish, xframe{att: 0, worker: 0}},
	})
	if !slices.Contains(broken, invResponse) {
		t.Fatalf("two responses no longer reach the client (broke %q): flip this test and tick ROADMAP", broken)
	}
}

// TestExploreCounterexampleDuplicateHeld: the same duplicated ASSIGN puts
// two copies of one believed-live attempt in a k=1 worker's ring, which the
// credit was meant to bound.
func TestExploreCounterexampleDuplicateHeld(t *testing.T) {
	assign := xframe{xAssign, 0, 0}
	broken := replay(t, newScope(1, 1, 1, 0, 0, 1, 0), []xstep{
		{op: opArrive},
		{opDup, assign},
		{opDeliver, assign},
		{opDeliver, assign},
	})
	if !slices.Contains(broken, invHeld) {
		t.Fatalf("a k=1 worker no longer holds two copies (broke %q): flip this test and tick ROADMAP", broken)
	}
}

// TestExploreAnsweredThenAbandoned pins a double count the six invariants
// do not cover: a request whose response got through but whose FINISH was
// lost reaches its last expiry. Recovery knows it was answered, so that
// expiry is accepted like the FINISH — its credit comes back and no drop is
// counted — instead of abandoning a request already counted completed.
func TestExploreAnsweredThenAbandoned(t *testing.T) {
	w := newWorld(newScope(1, 1, 1, 0, 1, 0, 0))
	for _, s := range []xstep{
		{op: opArrive},
		{opDeliver, xframe{xAssign, 0, 0}},
		{opFinish, xframe{att: 0, worker: 0}},
		{opDrop, xframe{xFinish, 0, 0}},
		{opFire, xframe{att: 0}},
		{opDeliver, xframe{xExpiry, 0, 0}},
	} {
		w.apply(s)
	}
	if w.resp[1] != 1 || w.drops[1] != 0 || !w.done[1] || w.lgc.Outstanding(0) != 0 {
		t.Fatalf("responses=%d drops=%d done=%v outstanding=%d: want one response, no drop, the credit back",
			w.resp[1], w.drops[1], w.done[1], w.lgc.Outstanding(0))
	}
}

// TestQuickRecoveryInvariants drives Logic + Recovery through long random
// walks of bigger worlds than the explorer can exhaust, in the shape of
// TestQuickLogicInvariants: random loss every time, and on half the runs
// duplication too, where only the invariants duplication cannot break are
// held.
func TestQuickRecoveryInvariants(t *testing.T) {
	f := func(seed uint64, workersRaw, kRaw, retriesRaw uint8, dup bool) bool {
		sc := newScope(int(workersRaw%4)+1, int(kRaw%3)+1, 24, int(retriesRaw%3), -1, 0, 12)
		if dup {
			sc.dups = 6
		}
		rng := rand.New(rand.NewPCG(seed, 7))
		w := newWorld(sc)
		for n := 0; n < 4000; n++ {
			steps, _ := w.steps(nil)
			if len(steps) == 0 {
				break
			}
			s := steps[rng.IntN(len(steps))]
			if s.op == opDrop && rng.IntN(4) != 0 {
				continue // keep loss a minority of the moves
			}
			var broken []string
			w, broken = w.try(s)
			for _, inv := range broken {
				if !dup || (inv != invResponse && inv != invHeld) {
					t.Logf("seed %d step %d (%v): %q", seed, n, s, inv)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
