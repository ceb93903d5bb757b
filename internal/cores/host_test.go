package cores

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"mindgap/internal/fabric"
	"mindgap/internal/params"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

const testPickup = 100 * time.Nanosecond

// newTestHost builds a host whose NIC steers everything to core 0 and
// appends "start" and "respond" to log as they happen.
func newTestHost(t *testing.T, eng *sim.Engine, workers int, slice time.Duration, log *[]string) *Host {
	t.Helper()
	var h *Host
	h = NewHost(eng, HostConfig{P: params.Default(), Workers: workers, Slice: slice, SelfArm: true, Pickup: testPickup},
		nil,
		func(r *task.Request) { h.Workers[0].Deliver(r) },
		func(r *task.Request) { *log = append(*log, "respond") })
	h.Started = func(w *Worker, r *task.Request) { *log = append(*log, "start") }
	return h
}

// walkBacklog recomputes a FIFO-inbox core's resident backlog from scratch:
// the reference Worker.Backlog's running sum must match.
func walkBacklog(w *Worker) int64 {
	var load int64
	if cur := w.Exec.Current(); cur != nil {
		load += int64(cur.Remaining)
	}
	w.inbox.Do(func(r *task.Request) { load += int64(r.Remaining) })
	return load
}

func TestHostSerialCoreAndReleaseRule(t *testing.T) {
	// Two requests land together on one core. The second may only start
	// once the first's Finished hook has called Release — here a
	// notification build later — plus the pickup delay, however long ago the
	// first finished executing.
	const notify = 700 * time.Nanosecond
	eng := sim.New()
	var log []string
	h := newTestHost(t, eng, 1, 0, &log)
	var firstBuilt, secondStart sim.Time
	h.Finished = func(w *Worker, _ *task.Request, built sim.Time) {
		log = append(log, "finished")
		if firstBuilt == 0 {
			firstBuilt = built
		}
		if w.Idle() || w.Running() {
			t.Error("core left the post state before Release")
		}
		w.After(built, notify, func(recv, _ any, _ uint64) { recv.(*Worker).Release() }, w, nil, 0)
	}
	h.Started = func(w *Worker, r *task.Request) {
		log = append(log, "start")
		if r.ID == 2 {
			secondStart = eng.Now()
		}
	}
	h.Inject(task.New(1, 0, time.Microsecond))
	h.Inject(task.New(2, 0, time.Microsecond))
	if got := h.Workers[0].Queued(); got != 0 {
		t.Fatalf("queued before the wire delivered: %d", got)
	}
	eng.Run()

	// The responses are still crossing the client wire while the core moves
	// on — which is why a Finished hook must not re-read the request later.
	want := []string{"start", "finished", "start", "finished", "respond", "respond"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("lifecycle order = %v, want %v", log, want)
	}
	if want := firstBuilt.Add(notify + testPickup); secondStart != want {
		t.Fatalf("second request started at %v, want %v (first response built at %v + notify + pickup)", secondStart, want, firstBuilt)
	}
	if h.Completions() != 2 || h.Preemptions() != 0 || h.Migrations() != 0 {
		t.Fatalf("completions=%d preemptions=%d migrations=%d", h.Completions(), h.Preemptions(), h.Migrations())
	}
	if !h.Workers[0].Idle() {
		t.Fatal("core not idle after draining")
	}
}

// TestHostPostSpan pins the post span each way a Finished hook can end it:
// the response enters the wire at its built instant, a request landing
// mid-span is picked up at built + Pickup — the instant the event chain
// gives — and only an event hook, or a chained host, files an event
// between completion and the response.
func TestHostPostSpan(t *testing.T) {
	p := params.Default()
	const service = 2 * time.Microsecond
	wire := p.ClientWireOneWay + time.Duration(float64(p.ResponseFrameBytes*8)/p.WireBandwidth*1e9)
	for _, c := range []struct {
		name     string
		finished func(eng *sim.Engine) func(*Worker, *task.Request, sim.Time)
		chain    bool
		// events is Executed() per completed request: its delivery, pickup,
		// execCompleted and hostRespond, plus any post-span event.
		events uint64
	}{
		{name: "nil hook", events: 4},
		{name: "ReleaseAt hook", events: 4, finished: func(*sim.Engine) func(*Worker, *task.Request, sim.Time) {
			return func(w *Worker, _ *task.Request, built sim.Time) { w.ReleaseAt(built) }
		}},
		{name: "event hook", events: 5, finished: func(eng *sim.Engine) func(*Worker, *task.Request, sim.Time) {
			return func(w *Worker, _ *task.Request, built sim.Time) {
				eng.AtE(built, func(recv, _ any, _ uint64) { recv.(*Worker).Release() }, w, nil, 0)
			}
		}},
		{name: "chained host", events: 5, chain: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New()
			responded := map[uint64]sim.Time{}
			h := NewHost(eng, HostConfig{P: p, Workers: 1, Pickup: testPickup}, nil,
				func(*task.Request) { t.Fatal("nothing enters through the client wire") },
				func(r *task.Request) { responded[r.ID] = eng.Now() })
			w := h.Workers[0]
			if c.chain {
				w.SetStretch(func(_ sim.Time, d time.Duration) time.Duration { return d })
			}
			if c.finished != nil {
				h.Finished = c.finished(eng)
			}
			var built, secondStart sim.Time
			h.Started = func(w *Worker, r *task.Request) {
				if r.ID == 2 {
					secondStart = eng.Now()
					return
				}
				built = eng.Now().Add(service + p.WorkerResponseCost)
				// Request 2 lands while the core builds request 1's response.
				eng.AtE(built.Add(-p.WorkerResponseCost/2), func(recv, _ any, _ uint64) {
					recv.(*Worker).Deliver(task.New(2, 0, service))
				}, w, nil, 0)
			}
			eng.AtE(0, func(recv, _ any, _ uint64) { recv.(*Worker).Deliver(task.New(1, 0, service)) }, w, nil, 0)
			eng.Run()

			if h.Completions() != 2 {
				t.Fatalf("completions = %d, want 2", h.Completions())
			}
			if got := eng.Executed() / h.Completions(); got != c.events || eng.Executed()%h.Completions() != 0 {
				t.Errorf("executed %d events for %d requests, want %d each", eng.Executed(), h.Completions(), c.events)
			}
			if got, want := responded[1], built.Add(wire); got != want {
				t.Errorf("request 1 reached the client at %v, want %v (built at %v + wire)", got, want, built)
			}
			if want := built.Add(testPickup); secondStart != want {
				t.Errorf("request 2 started at %v, want %v (built + pickup)", secondStart, want)
			}
		})
	}
}

func TestHostBacklogAndAuditTruthSkip(t *testing.T) {
	eng := sim.New()
	var log []string
	h := newTestHost(t, eng, 2, 0, &log)
	w := h.Workers[0]
	w.Deliver(task.New(1, 0, 5*time.Microsecond))
	w.Deliver(task.New(2, 0, 7*time.Microsecond))
	if got := w.Backlog(); got != 12_000 {
		t.Fatalf("backlog with both queued = %d ns, want 12000", got)
	}
	eng.RunUntil(sim.Time(testPickup)) // pickup done: request 1 executing, 2 queued
	if !w.Running() || w.Queued() != 1 || w.Backlog() != 12_000 {
		t.Fatalf("running=%v queued=%d backlog=%d", w.Running(), w.Queued(), w.Backlog())
	}
	if h.Workers[1].Backlog() != 0 || !h.Workers[1].Idle() {
		t.Fatal("untouched core reports work")
	}
	eng.RunUntil(sim.Time(3 * time.Microsecond)) // request 1 two fifths done
	if got, want := w.Backlog(), walkBacklog(w); got != want {
		t.Fatalf("running backlog %d ns, walk %d ns", got, want)
	}
	if h.AuditTruth() != nil {
		t.Fatal("truth scan ran with no collector attached")
	}
}

func TestHostRingInbox(t *testing.T) {
	// A model-owned ring stands in for the FIFO; a request it flags rtc
	// holds the core to completion even though the host self-arms slices.
	eng := sim.New()
	var log []string
	h := newTestHost(t, eng, 1, 10*time.Microsecond, &log)
	h.Preempted = func(w *Worker, _ *task.Request) { log = append(log, "preempt"); w.Release() }
	w := h.Workers[0]
	ring := []*task.Request{task.New(1, 0, 25*time.Microsecond), task.New(2, 0, 25*time.Microsecond)}
	w.UseRing(Inbox{
		Len: func() int { return len(ring) },
		Pop: func() (*task.Request, bool, bool) {
			r := ring[0]
			ring = ring[1:]
			return r, r.ID == 1, true
		},
	})
	for _, r := range ring {
		w.Land(r)
	}
	if w.Queued() != 2 || w.Backlog() != 50_000 {
		t.Fatalf("ring not consulted: queued=%d backlog=%d", w.Queued(), w.Backlog())
	}
	w.Wake()
	eng.Run()
	if w.Backlog() != 0 {
		t.Fatalf("backlog %d ns once the ring drained and request 2 left the core", w.Backlog())
	}
	// Request 1 ran to completion; request 2 was sliced once and, with
	// nothing re-delivering it, never finished.
	want := []string{"start", "start", "respond", "preempt"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("lifecycle = %v, want %v", log, want)
	}
}

func TestHostStealAfter(t *testing.T) {
	eng := sim.New()
	var log []string
	h := newTestHost(t, eng, 2, 0, &log)
	busy, thief := h.Workers[0], h.Workers[1]
	for id := uint64(1); id <= 3; id++ {
		busy.Deliver(task.New(id, 0, 10*time.Microsecond))
	}
	thief.StealAfter(200*time.Nanosecond, busy)
	if thief.Idle() || !thief.Running() {
		t.Fatal("steal did not reserve the thief")
	}
	eng.RunUntil(sim.Time(200))
	if cur := thief.Exec.Current(); cur == nil || cur.ID != 3 {
		t.Fatalf("thief runs %v, want the victim's tail (request 3)", cur)
	}
	if busy.Queued() != 1 {
		t.Fatalf("victim queue = %d, want 1", busy.Queued())
	}
	for _, w := range h.Workers {
		if got, want := w.Backlog(), walkBacklog(w); got != want {
			t.Fatalf("core %d after the steal: running backlog %d ns, walk %d ns", w.ID, got, want)
		}
	}
	// A steal that finds the victim drained falls back to the thief's own inbox.
	eng.Run()
	thief.Deliver(task.New(4, 0, time.Microsecond))
	eng.Run()
	thief.StealAfter(200*time.Nanosecond, busy)
	r5 := task.New(5, 0, time.Microsecond)
	thief.inbox.Push(r5) // behind the reservation: no Deliver, so no wake-up
	thief.queued += int64(r5.Remaining)
	eng.Run()
	if h.Completions() != 5 {
		t.Fatalf("completions = %d, want 5", h.Completions())
	}
}

// TestPostSlice: a posted slice interrupt is armed only for a request that
// outlasts the slice, and it lands only on the request it was posted for —
// not on a recycled struct that restarted on the same core meanwhile.
func TestPostSlice(t *testing.T) {
	const slice = 10 * time.Microsecond
	build := func(eng *sim.Engine, done func(*task.Request)) *Host {
		var h *Host
		h = NewHost(eng, HostConfig{P: params.Default(), Workers: 1, Slice: slice, Pickup: testPickup},
			nil, func(r *task.Request) { h.Workers[0].Deliver(r) }, done)
		h.Preempted = func(w *Worker, _ *task.Request) { w.Release() }
		return h
	}
	t.Run("short request arms nothing", func(t *testing.T) {
		eng := sim.New()
		h := build(eng, func(*task.Request) {})
		h.Started = func(w *Worker, r *task.Request) {
			before := eng.Pending()
			w.PostSlice(r, time.Microsecond)
			if eng.Pending() != before {
				t.Errorf("a %v request armed a posted slice of %v", r.Remaining, slice)
			}
		}
		h.Inject(task.New(1, 0, slice))
		eng.Run()
		if h.Completions() != 1 || h.Preemptions() != 0 {
			t.Fatalf("completions=%d preemptions=%d, want 1 and 0", h.Completions(), h.Preemptions())
		}
	})
	t.Run("long request is interrupted", func(t *testing.T) {
		eng := sim.New()
		h := build(eng, func(*task.Request) {})
		h.Started = func(w *Worker, r *task.Request) { w.PostSlice(r, time.Microsecond) }
		h.Inject(task.New(1, 0, 3*slice))
		eng.Run()
		if h.Preemptions() != 1 {
			t.Fatalf("preemptions = %d, want 1 (nothing re-delivers the request)", h.Preemptions())
		}
	})
	t.Run("recycled request is not interrupted", func(t *testing.T) {
		// Request 1 (15 µs) posts an interrupt due 110 µs after its start.
		// It completes, its struct is recycled as request 2 (300 µs) and
		// starts on the same core long before the interrupt lands: same
		// pointer, next generation.
		eng := sim.New()
		pool := &task.Pool{}
		var h *Host
		h = build(eng, func(r *task.Request) {
			if r.ID == 1 {
				pool.Put(r)
				h.Workers[0].Deliver(pool.Get(2, eng.Now(), 30*slice))
			}
		})
		var first *task.Request
		h.Started = func(w *Worker, r *task.Request) {
			if r.ID == 1 {
				first = r
				w.PostSlice(r, 100*time.Microsecond)
			} else if r != first {
				t.Fatal("request 2 did not reuse request 1's struct")
			}
		}
		h.Inject(pool.Get(1, 0, 15*time.Microsecond))
		eng.Run()
		if h.Completions() != 2 || h.Preemptions() != 0 {
			t.Fatalf("completions=%d preemptions=%d, want 2 and 0", h.Completions(), h.Preemptions())
		}
	})
}

// frontStep is one request leaving a test host's front: where, when, and
// whether it skipped the Front pipe.
type frontStep struct {
	id      uint64
	at      sim.Time
	skipped bool
}

// runFront drives a one-worker host with n requests at random transmit
// instants, pushed (each Injected at its instant by an event) or pulled
// (Pull), with a Front pipe frozen over [down0, down1) that requests
// reaching the port inside that window skip. It logs each front exit and
// returns the engine.
func runFront(t *testing.T, n int, front, pull bool) ([]frontStep, *sim.Engine) {
	t.Helper()
	const down0, down1 = sim.Time(40 * time.Microsecond), sim.Time(55 * time.Microsecond)
	eng := sim.New()
	var log []frontStep
	var h *Host
	h = NewHost(eng, HostConfig{P: params.Default(), Workers: 1, Pickup: testPickup}, nil,
		func(r *task.Request) {
			log = append(log, frontStep{r.ID, eng.Now(), false})
			h.Workers[0].Deliver(r)
		},
		func(*task.Request) {})
	if front {
		l := fabric.NewLink(eng, "networker", fabric.LinkConfig{Cost: 700, Latency: 300, Front: true})
		l.SetStretch(func(at sim.Time, work time.Duration) time.Duration {
			switch {
			case at >= down1 || at.Add(work) <= down0:
				return work
			case at >= down0:
				return down1.Sub(at) + work
			default:
				return down1.Sub(down0) + work
			}
		})
		h.Front(l, func(from, to sim.Time) bool { return from < down1 && to >= down0 },
			func(r *task.Request) {
				log = append(log, frontStep{r.ID, eng.Now(), true})
				h.Workers[0].Deliver(r)
			})
	}
	rng := rand.New(rand.NewPCG(7, 11))
	arrivals := make([]sim.Time, n)
	for i := 1; i < n; i++ {
		arrivals[i] = arrivals[i-1] + sim.Time(rng.IntN(1500))
	}
	inject := func(i int) { h.Inject(task.New(uint64(i+1), arrivals[i], 600*time.Nanosecond)) }
	if pull {
		next := 0
		h.Pull(func() {
			if next < n {
				next++
				inject(next - 1)
			}
		})
		h.pull()
	} else {
		for i, at := range arrivals {
			eng.At(at, func() { inject(i) })
		}
	}
	eng.Run()
	return log, eng
}

// TestHostPull: a pulled host files one event per arrival, its front exit,
// so a one-worker run-to-completion host costs 4 events per request (exit,
// pickup, completion, response) where a pushed one costs 5; and pulled or
// pushed, every request leaves the front at the same instant by the same
// route — through a Front pipe frozen by a crash window whose requests
// skip it, reaching the port before those still frozen inside leave.
func TestHostPull(t *testing.T) {
	const n = 400
	pushed, pushEng := runFront(t, n, false, false)
	pulled, pullEng := runFront(t, n, false, true)
	if !reflect.DeepEqual(pulled, pushed) {
		t.Fatalf("pulled front exits diverge from pushed:\n got %v\nwant %v", pulled, pushed)
	}
	if got := pullEng.Executed(); got != 4*n {
		t.Errorf("pulled host executed %d events for %d requests, want 4 each", got, n)
	}
	if got := pushEng.Executed(); got != 5*n {
		t.Errorf("pushed host executed %d events for %d requests, want 5 each", got, n)
	}

	pushed, _ = runFront(t, n, true, false)
	pulled, _ = runFront(t, n, true, true)
	if !reflect.DeepEqual(pulled, pushed) {
		t.Fatalf("pulled front exits through a frozen pipe diverge from pushed:\n got %v\nwant %v", pulled, pushed)
	}
	overtaken := false
	for i := 1; i < len(pulled); i++ {
		overtaken = overtaken || pulled[i].id < pulled[i-1].id
	}
	if !overtaken {
		t.Fatal("no request skipped the frozen pipe ahead of one inside it: the window missed the traffic")
	}
}

func TestHostValidation(t *testing.T) {
	eng := sim.New()
	nop := func(*task.Request) {}
	for name, f := range map[string]func(){
		"no workers": func() { NewHost(eng, HostConfig{P: params.Default()}, nil, nop, nop) },
		"nil done":   func() { NewHost(eng, HostConfig{P: params.Default(), Workers: 1}, nil, nop, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRSSHashDistribution(t *testing.T) {
	counts := make([]int, 8)
	for i := uint64(0); i < 80_000; i++ {
		counts[RSSHash(i)%8]++
	}
	for b, c := range counts {
		if c < 9_000 || c > 11_000 {
			t.Fatalf("bucket %d count %d, want ≈10000", b, c)
		}
	}
}
