package fabric

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"mindgap/internal/sim"
)

// refServer is the event-driven FIFO server every pipe stands in for: an
// item starts when the one before it completes, its work stretched from
// that instant, and each completion is an engine event that starts the
// next. It is the oracle for the pipe arithmetic and exists only here.
type refServer struct {
	eng     *sim.Engine
	stretch func(sim.Time, time.Duration) time.Duration
	queue   []refItem
	busy    bool
	exit    func(id int)
}

type refItem struct {
	id   int
	work time.Duration
}

func (r *refServer) submit(id int, work time.Duration) {
	r.queue = append(r.queue, refItem{id, work})
	if !r.busy {
		r.start()
	}
}

func (r *refServer) start() {
	it := r.queue[0]
	r.queue = r.queue[1:]
	r.busy = true
	d := it.work
	if r.stretch != nil {
		d = r.stretch(r.eng.Now(), d)
	}
	r.eng.After(d, func() {
		r.exit(it.id)
		if len(r.queue) > 0 {
			r.start()
		} else {
			r.busy = false
		}
	})
}

// frozenIn is a fault stretch: the server makes no progress inside any of
// the sorted, disjoint windows.
func frozenIn(windows [][2]sim.Time) func(sim.Time, time.Duration) time.Duration {
	return func(at sim.Time, work time.Duration) time.Duration {
		cur, left := at, work
		for _, w := range windows {
			if w[1] <= cur {
				continue
			}
			if cur < w[0] {
				gap := w[0].Sub(cur)
				if left <= gap {
					break
				}
				left -= gap
			}
			cur = w[1]
		}
		return cur.Add(left).Sub(at)
	}
}

// exitAt is one item leaving a server (or a link's far end).
type exitAt struct {
	id int
	at sim.Time
}

// TestPipeMatchesEventDrivenServer: over random submit sequences at
// distinct instants — idle gaps, back-to-back bursts that queue, freeze
// windows that catch items mid-service and in the queue — a Link with a
// cost, a bandwidth or both and a Stage with per-item costs hand every
// item over at the same instant and in the same order as the event-driven
// server, a link's propagation latency added after it.
func TestPipeMatchesEventDrivenServer(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x70697065))
		var windows [][2]sim.Time
		for at := sim.Time(rng.IntN(3000)); len(windows) < rng.IntN(4); at += sim.Time(500 + rng.IntN(4000)) {
			end := at + sim.Time(1+rng.IntN(2000))
			windows = append(windows, [2]sim.Time{at, end})
			at = end
		}
		var stretch func(sim.Time, time.Duration) time.Duration
		if len(windows) > 0 {
			stretch = frozenIn(windows)
		}
		// Distinct submit instants: gaps of 1–400 ns against costs of
		// 0–700 ns, so the server alternates between idle and backlogged.
		n := 1 + rng.IntN(60)
		instants := make([]sim.Time, n)
		bytes := make([]int, n)
		for i := range instants {
			if i > 0 {
				instants[i] = instants[i-1] + sim.Time(1+rng.IntN(400))
			}
			bytes[i] = rng.IntN(900)
		}
		cfg := LinkConfig{Latency: time.Duration(rng.IntN(3000))}
		switch rng.IntN(3) {
		case 0:
			cfg.Cost = time.Duration(1 + rng.IntN(700))
		case 1:
			cfg.BandwidthBps = 10e9
		default:
			cfg.Cost, cfg.BandwidthBps = time.Duration(1+rng.IntN(700)), 25e9
		}
		work := func(i int) time.Duration {
			l := Link{cfg: cfg}
			return cfg.Cost + l.serialization(bytes[i])
		}

		// The link against the reference server plus a latency hop.
		run := func(submit func(eng *sim.Engine, i int, log *[]exitAt)) ([]exitAt, uint64) {
			eng := sim.New()
			var log []exitAt
			for i, at := range instants {
				i := i
				eng.At(at, func() { submit(eng, i, &log) })
			}
			eng.Run()
			return log, eng.Executed()
		}
		var pipe *Link
		got, events := run(func(eng *sim.Engine, i int, log *[]exitAt) {
			if pipe == nil {
				pipe = NewLink(eng, "pipe", cfg)
				pipe.SetStretch(stretch)
			}
			pipe.Send(bytes[i], func() { *log = append(*log, exitAt{i, eng.Now()}) })
		})
		var ref *refServer
		want, _ := run(func(eng *sim.Engine, i int, log *[]exitAt) {
			if ref == nil {
				ref = &refServer{eng: eng, stretch: stretch, exit: func(id int) {
					eng.After(cfg.Latency, func() { *log = append(*log, exitAt{id, eng.Now()}) })
				}}
			}
			ref.submit(i, work(i))
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d, %+v, windows %v: link deliveries diverge\n got %v\nwant %v", seed, cfg, windows, got, want)
		}
		if events != uint64(2*n) {
			t.Fatalf("seed %d: %d submits cost %d events, want one each plus the delivery", seed, n, events)
		}
		// A front link entered late, in order — every entry made at the
		// last submit instant, so all but one lie in the past — delivers
		// each message where the event-driven entries did.
		late := func() (log []exitAt) {
			eng := sim.New()
			fcfg := cfg
			fcfg.Front = true
			front := NewLink(eng, "front", fcfg)
			front.SetStretch(stretch)
			eng.At(instants[n-1], func() {
				for i, at := range instants {
					deliver, _ := front.Enter(at, bytes[i])
					log = append(log, exitAt{i, deliver})
				}
			})
			eng.Run()
			return log
		}()
		if !slices.Equal(late, want) {
			t.Fatalf("seed %d, %+v, windows %v: late front entries diverge\n got %v\nwant %v", seed, cfg, windows, late, want)
		}

		// A stage with per-item costs against the reference server alone.
		costs := make([]time.Duration, n)
		for i := range costs {
			costs[i] = time.Duration(rng.IntN(700))
		}
		var st *Stage[int]
		got, _ = run(func(eng *sim.Engine, i int, log *[]exitAt) {
			if st == nil {
				st = NewStage[int](eng, "stage", 0, func(i int) time.Duration { return costs[i] },
					func(i int) { *log = append(*log, exitAt{i, eng.Now()}) })
				st.SetStretch(stretch)
			}
			st.Submit(i)
		})
		ref = nil
		want, _ = run(func(eng *sim.Engine, i int, log *[]exitAt) {
			if ref == nil {
				ref = &refServer{eng: eng, stretch: stretch, exit: func(id int) { *log = append(*log, exitAt{id, eng.Now()}) }}
			}
			ref.submit(i, costs[i])
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d, windows %v: stage exits diverge\n got %v\nwant %v", seed, windows, got, want)
		}
	}
}

// TestLinkEnterAtChains: a message entered at a later instant through
// SendAtT or carried on from Enter arrives exactly where the hop-by-hop
// form puts it, and entering a server before its previous entry, or any
// link but a front one before now, panics.
func TestLinkEnterAtChains(t *testing.T) {
	eng := sim.New()
	first := NewLink(eng, "first", LinkConfig{Cost: 300, Latency: 100})
	second := NewLink(eng, "second", LinkConfig{Cost: 200, Latency: 50})
	var arrived []sim.Time
	for k := 0; k < 3; k++ {
		out, ok := first.Enter(eng.Now(), 0)
		if !ok || !second.SendAtT(out, 0, func(_, _ any, _ uint64) { arrived = append(arrived, eng.Now()) }, nil, nil, 0) {
			t.Fatal("a healthy link refused a message")
		}
	}
	eng.Run()
	// The first link releases at 400, 700, 1000; the second serves from
	// 400, 700 (free at 600), 1000 and adds 50.
	if want := []sim.Time{650, 950, 1250}; !slices.Equal(arrived, want) {
		t.Fatalf("chained arrivals %v, want %v", arrived, want)
	}
	for name, enter := range map[string]func(){
		"server entry before the previous one": func() { second.Enter(eng.Now()+100, 0); second.Enter(eng.Now()+50, 0) },
		"entry before now":                     func() { NewLink(eng, "x", LinkConfig{}).Enter(eng.Now()-1, 0) },
		"server entry before now":              func() { NewLink(eng, "x", LinkConfig{Cost: 10}).Enter(eng.Now()-1, 0) },
		"front entry before the previous one": func() {
			front := NewLink(eng, "front", LinkConfig{Cost: 10, Front: true})
			front.Enter(eng.Now()-1, 0)
			front.Enter(eng.Now()-2, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			enter()
		}()
	}
	if out, _ := NewLink(eng, "front", LinkConfig{Cost: 10, Front: true}).Enter(eng.Now()-100, 0); out != eng.Now()-90 {
		t.Errorf("front entry 100 ns before now left at %v, want %v", out, eng.Now()-90)
	}
}
