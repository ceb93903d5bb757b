package fabric

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mindgap/internal/sim"
	"mindgap/internal/telemetry"
)

func TestLinkLatencyOnly(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, "wire", LinkConfig{Latency: 2560 * time.Nanosecond})
	var arrived sim.Time
	l.Send(64, func() { arrived = eng.Now() })
	eng.Run()
	if arrived != sim.Time(2560) {
		t.Fatalf("arrival at %v, want 2.56µs", arrived)
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := sim.New()
	// 10 Gb/s: 1000 bytes = 800 ns.
	l := NewLink(eng, "wire", LinkConfig{Latency: time.Microsecond, BandwidthBps: 10e9})
	var arrivals []sim.Time
	l.Send(1000, func() { arrivals = append(arrivals, eng.Now()) })
	l.Send(1000, func() { arrivals = append(arrivals, eng.Now()) })
	eng.Run()
	if arrivals[0] != sim.Time(1800) {
		t.Fatalf("first arrival %v, want 1.8µs", arrivals[0])
	}
	// Second frame waits for the first to serialize: departs 1600, arrives 2600.
	if arrivals[1] != sim.Time(2600) {
		t.Fatalf("second arrival %v, want 2.6µs", arrivals[1])
	}
}

func TestLinkFIFOWithMixedSizes(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, "wire", LinkConfig{Latency: time.Microsecond, BandwidthBps: 1e9})
	var order []int
	// A large frame followed by a tiny one: the tiny one must not overtake.
	l.Send(10_000, func() { order = append(order, 1) })
	l.Send(10, func() { order = append(order, 2) })
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestLinkZeroConfigIsInstant(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, "shm", LinkConfig{})
	fired := false
	l.Send(0, func() { fired = true })
	eng.Run()
	if !fired || eng.Now() != 0 {
		t.Fatalf("instant link: fired=%v now=%v", fired, eng.Now())
	}
}

// Property: with random sizes, deliveries always occur in send order and
// never earlier than latency after the send.
func TestQuickLinkOrdering(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.New()
		lat := 500 * time.Nanosecond
		l := NewLink(eng, "wire", LinkConfig{Latency: lat, BandwidthBps: 10e9})
		var order []int
		var times []sim.Time
		for i, sz := range sizes {
			i := i
			sent := eng.Now()
			_ = sent
			l.Send(int(sz%2000)+1, func() {
				order = append(order, i)
				times = append(times, eng.Now())
			})
		}
		eng.Run()
		if len(order) != len(sizes) {
			return false
		}
		for i := range order {
			if order[i] != i {
				return false
			}
			if times[i] < sim.Time(lat) {
				return false
			}
			if i > 0 && times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkEventsPerMessage pins that a hop costs one engine event, filed at
// the delivery: with or without a serializer or a per-message cost; a fault
// hook that only adds latency changes the delivery instant, not the count;
// a fault drop costs nothing.
func TestLinkEventsPerMessage(t *testing.T) {
	spike := func(sim.Time) (bool, time.Duration) { return false, 500 * time.Nanosecond }
	loss := func(sim.Time) (bool, time.Duration) { return true, 0 }
	for _, tc := range []struct {
		name      string
		cfg       LinkConfig
		fault     func(sim.Time) (bool, time.Duration)
		events    uint64
		delivered bool
		at        sim.Time
	}{
		{"zero serialization", LinkConfig{Latency: time.Microsecond}, nil, 1, true, 1000},
		{"serializing", LinkConfig{Latency: time.Microsecond, BandwidthBps: 10e9}, nil, 1, true, 1800},
		{"serializing with cost", LinkConfig{Latency: time.Microsecond, BandwidthBps: 10e9, Cost: 550}, nil, 1, true, 2350},
		{"fault adds latency", LinkConfig{Latency: time.Microsecond}, spike, 1, true, 1500},
		{"fault drop", LinkConfig{Latency: time.Microsecond}, loss, 0, false, 0},
	} {
		eng := sim.New()
		l := NewLink(eng, tc.name, tc.cfg)
		if tc.fault != nil {
			l.SetFault(tc.fault)
		}
		var at sim.Time
		delivered := false
		if ok := l.Send(1000, func() { delivered, at = true, eng.Now() }); ok != tc.delivered {
			t.Errorf("%s: Send = %v, want %v", tc.name, ok, tc.delivered)
		}
		eng.Run()
		if eng.Executed() != tc.events || delivered != tc.delivered || at != tc.at {
			t.Errorf("%s: %d events, delivered %v at %v; want %d, %v at %v",
				tc.name, eng.Executed(), delivered, at, tc.events, tc.delivered, tc.at)
		}
	}
}

// refLink is the two-event link every zero-serialization hop used to be:
// a departure event at the send instant, then the delivery a latency
// later. It is the oracle for the direct-delivery path.
type refLink struct {
	eng     *sim.Engine
	latency time.Duration
}

func (r *refLink) Send(_ int, deliver func()) bool {
	r.eng.After(0, func() { r.eng.After(r.latency, deliver) })
	return true
}

// TestLinkDirectDeliveryMatchesTwoEventReference: in a network of nothing
// but zero-serialization links — equal and unequal latencies, zero
// included, sends issued from delivery callbacks and from same-instant
// injections — direct delivery hands over every message at the same
// instant and in the same order as the two-event reference.
func TestLinkDirectDeliveryMatchesTwoEventReference(t *testing.T) {
	type sender interface {
		Send(bytes int, deliver func()) bool
	}
	type hop struct {
		msg int
		at  sim.Time
	}
	latencies := []time.Duration{0, 100, 100, 250, 2560}
	run := func(seed uint64, build func(*sim.Engine, time.Duration) sender) ([]hop, uint64) {
		rng := rand.New(rand.NewPCG(seed, 0x6c696e6b))
		eng := sim.New()
		links := make([]sender, 2+rng.IntN(3))
		for i := range links {
			links[i] = build(eng, latencies[rng.IntN(len(latencies))])
		}
		var log []hop
		budget := 400
		var forward func(msg int)
		forward = func(msg int) {
			log = append(log, hop{msg, eng.Now()})
			for k := rng.IntN(3); k > 0 && budget > 0; k-- {
				budget--
				next := msg*3 + k
				links[rng.IntN(len(links))].Send(64, func() { forward(next) })
			}
		}
		for i := 0; i < 12; i++ {
			msg, l := i+1, links[rng.IntN(len(links))]
			// Few distinct instants, so injections tie with deliveries.
			eng.At(sim.Time(rng.IntN(4)*50), func() { l.Send(64, func() { forward(msg) }) })
		}
		eng.Run()
		return log, eng.Executed()
	}
	for seed := uint64(0); seed < 200; seed++ {
		got, events := run(seed, func(eng *sim.Engine, lat time.Duration) sender {
			return NewLink(eng, "direct", LinkConfig{Latency: lat})
		})
		want, refEvents := run(seed, func(eng *sim.Engine, lat time.Duration) sender {
			return &refLink{eng: eng, latency: lat}
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: deliveries diverge\n got %v\nwant %v", seed, got, want)
		}
		// 12 injections, then one event per hop against the reference's two.
		if hops := uint64(len(got)); events != 12+hops || refEvents != 12+2*hops {
			t.Fatalf("seed %d: %d hops cost %d events (reference %d), want %d (%d)",
				seed, hops, events, refEvents, 12+hops, 12+2*hops)
		}
	}
}

// TestLinkObservedMatchesPlain: the same scripted traffic — idle sends,
// back-to-back bursts that stall behind the serializer, fault-delayed
// messages, sends issued from delivery callbacks — through a plain link and
// through one with a registry attached yields the same delivery instants,
// the same order and the same Executed(), serializing or not, and the
// delivered gauge agrees with what the receiver counted — both mid-run,
// halted while one burst is partly serializing and partly propagating,
// and after the drain. Plain engine
// events are scheduled for every delivery instant from just after each
// burst's sends, i.e. between a message's send and its departure: they
// fire behind a delivery, whose seq is drawn at send time. The fault's
// per-message latency spike lets a later send overtake an earlier one, and
// the gauge must count deliveries, not a prefix of sends.
func TestLinkObservedMatchesPlain(t *testing.T) {
	type hop struct {
		msg int // negative: a plain event, by instant
		at  sim.Time
	}
	bursts := []struct {
		at sim.Time
		n  int
	}{{0, 1}, {5000, 4}, {5000, 2}, {5160, 3}, {20000, 1}, {20800, 1}}
	const halt = 5700 // mid-burst: on the serializing link three messages propagate, six serialize
	run := func(cfg LinkConfig, reg *telemetry.Registry, ties []hop, serializing int) ([]hop, uint64) {
		eng := sim.New()
		l := NewLink(eng, "wire", cfg)
		// Every third message meets a latency spike; none is lost.
		sends := 0
		l.SetFault(func(sim.Time) (bool, time.Duration) {
			sends++
			return false, time.Duration(sends%3/2) * 700
		})
		if reg != nil {
			l.RegisterTelemetry(reg, "wire")
		}
		var log []hop
		// sent maps a message to its send position; order lists those
		// positions in delivery order.
		sent := map[uint64]int{}
		var order []int
		send := func(bytes int, fn sim.EventFunc, msg uint64) bool {
			sent[msg] = len(sent)
			return l.SendT(bytes, fn, nil, nil, msg)
		}
		delivered, accepted := 0, 0
		var deliver sim.EventFunc
		deliver = func(_, _ any, msg uint64) {
			delivered++
			order = append(order, sent[msg])
			log = append(log, hop{int(msg), eng.Now()})
			if msg < 100 && msg%4 == 0 && send(200, deliver, msg+100) { // a reply from inside the delivery
				accepted++
			}
		}
		mark := func(_, _ any, at uint64) { log = append(log, hop{-int(at), eng.Now()}) }
		msg := 0
		for _, b := range bursts {
			b := b
			eng.At(b.at, func() {
				for k := 0; k < b.n; k++ {
					msg++
					if send(100+msg*50, deliver, uint64(msg)) {
						accepted++
					}
				}
			})
			eng.At(b.at+1, func() {
				for _, h := range ties {
					if h.at > eng.Now() {
						eng.AtE(h.at, mark, nil, nil, uint64(h.at))
					}
				}
			})
		}
		check := func(when string) {
			if reg == nil {
				return
			}
			if got := reg.Snapshot().Gauges["wire/delivered"]; int(got) != delivered {
				t.Errorf("%s: delivered gauge = %v, receiver counted %d", when, got, delivered)
			}
		}
		eng.RunUntil(halt)
		if inFlight := accepted - delivered; inFlight <= serializing || delivered == 0 {
			t.Fatalf("halt at %v: %d accepted, %d delivered, %d serializing; want messages in every state",
				eng.Now(), accepted, delivered, serializing)
		}
		check("mid-run")
		eng.Run()
		if delivered != accepted || delivered < 12 {
			t.Errorf("%d of %d accepted messages delivered", delivered, accepted)
		}
		if slices.IsSorted(order) {
			t.Errorf("%+v: no delivery overtook an earlier send; the latency spikes no longer reorder", cfg)
		}
		check("drained")
		return log, eng.Executed()
	}
	for _, tc := range []struct {
		cfg         LinkConfig
		serializing int // at the halt
	}{
		{LinkConfig{Latency: time.Microsecond}, 0},
		{LinkConfig{Latency: time.Microsecond, BandwidthBps: 10e9}, 6},
	} {
		cfg := tc.cfg
		ties, _ := run(cfg, nil, nil, tc.serializing) // the delivery instants, to tie against
		plain, events := run(cfg, nil, ties, tc.serializing)
		observed, obsEvents := run(cfg, telemetry.NewRegistry(), ties, tc.serializing)
		if !slices.Equal(plain, observed) {
			t.Fatalf("%+v: deliveries diverge\n   plain %v\nobserved %v", cfg, plain, observed)
		}
		if events != obsEvents {
			t.Fatalf("%+v: Executed() %d plain, %d observed", cfg, events, obsEvents)
		}
	}
}

// TestLinkObservedAccountingUnderReordering sends a few thousand messages
// in waves through an observed link whose latency fault holds every fifth
// one back long enough for later sends to overtake it. At every wave's
// instant the delivered gauge must equal what the receiver counted, and
// the delivery-instant list must never hold more than twice the peak
// number of messages in flight.
func TestLinkObservedAccountingUnderReordering(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, "wire", LinkConfig{Latency: time.Microsecond})
	sends := 0
	l.SetFault(func(sim.Time) (bool, time.Duration) {
		sends++
		if sends%5 == 0 {
			return false, 3 * time.Microsecond
		}
		return false, 0
	})
	reg := telemetry.NewRegistry()
	l.RegisterTelemetry(reg, "wire")
	delivered, accepted, peak, overtaken := 0, 0, 0, 0
	last := 0
	deliver := func(_, _ any, msg uint64) {
		delivered++
		if int(msg) < last {
			overtaken++
		}
		last = int(msg)
	}
	for wave := 0; wave < 400; wave++ {
		// Waves of 1–16 messages every 700 ns: the in-flight population
		// rises and falls, so the list both compacts and grows.
		at := sim.Time(wave * 700)
		eng.RunUntil(at)
		if got := reg.Snapshot().Gauges["wire/delivered"]; int(got) != delivered {
			t.Fatalf("at %v: delivered gauge = %v, receiver counted %d", at, got, delivered)
		}
		for k := 0; k < 1+(wave*7)%16; k++ {
			if l.SendT(64, deliver, nil, nil, uint64(accepted)) {
				accepted++
			}
			peak = max(peak, accepted-delivered)
			if len(l.flight) > 2*peak || cap(l.flight) > 2*peak {
				t.Fatalf("at %v: %d instants kept (capacity %d), peak in flight %d", at, len(l.flight), cap(l.flight), peak)
			}
		}
	}
	eng.Run()
	if got := reg.Snapshot().Gauges["wire/delivered"]; int(got) != delivered || delivered != accepted {
		t.Fatalf("drained: gauge %v, receiver %d, accepted %d", got, delivered, accepted)
	}
	if overtaken == 0 {
		t.Fatal("no delivery overtook an earlier send; the fault no longer reorders")
	}
}

func TestStageSerialProcessing(t *testing.T) {
	eng := sim.New()
	var done []sim.Time
	s := NewStage[int](eng, "arm", 0, FixedCost[int](700*time.Nanosecond), func(int) {
		done = append(done, eng.Now())
	})
	s.Submit(1)
	s.Submit(2)
	s.Submit(3)
	eng.Run()
	want := []sim.Time{700, 1400, 2100}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done[%d] = %v, want %v", i, done[i], want[i])
		}
	}
	if s.Processed() != 3 {
		t.Fatalf("Processed = %d", s.Processed())
	}
}

func TestStagePerItemCost(t *testing.T) {
	eng := sim.New()
	var done []sim.Time
	s := NewStage[time.Duration](eng, "w", 0,
		func(d time.Duration) time.Duration { return d },
		func(time.Duration) { done = append(done, eng.Now()) })
	s.Submit(100 * time.Nanosecond)
	s.Submit(1 * time.Microsecond)
	eng.Run()
	if done[0] != sim.Time(100) || done[1] != sim.Time(1100) {
		t.Fatalf("done = %v", done)
	}
}

func TestStageBoundedQueue(t *testing.T) {
	eng := sim.New()
	processed := 0
	s := NewStage[int](eng, "arm", 1, FixedCost[int](time.Microsecond), func(int) { processed++ })
	if !s.Submit(1) { // enters service
		t.Fatal("submit 1 rejected")
	}
	if !s.Submit(2) { // queued (limit 1)
		t.Fatal("submit 2 rejected")
	}
	if s.Submit(3) { // queue full
		t.Fatal("submit 3 accepted beyond limit")
	}
	if s.Dropped() != 1 {
		t.Fatalf("Dropped = %d", s.Dropped())
	}
	eng.Run()
	if processed != 2 {
		t.Fatalf("processed = %d", processed)
	}
}

func TestStageIdleRestart(t *testing.T) {
	eng := sim.New()
	processed := 0
	s := NewStage[int](eng, "arm", 0, FixedCost[int](time.Microsecond), func(int) { processed++ })
	s.Submit(1)
	eng.Run()
	if s.Busy() {
		t.Fatal("stage busy after drain")
	}
	s.Submit(2)
	eng.Run()
	if processed != 2 {
		t.Fatalf("processed = %d", processed)
	}
}

func TestStageTelemetry(t *testing.T) {
	eng := sim.New()
	s := NewStage[int](eng, "arm", 0, FixedCost[int](time.Microsecond), func(int) {})
	reg := telemetry.NewRegistry()
	s.RegisterTelemetry(reg, "arm")
	s.Submit(1)
	eng.Run()
	// A stage registers its processed count, the one gauge the benchmark
	// reads.
	if g := reg.Snapshot().Gauges; len(g) != 1 || g["arm/processed"] != 1 {
		t.Fatalf("stage gauges = %v, want arm/processed 1", g)
	}
}

func TestStageNilDonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil done did not panic")
		}
	}()
	NewStage[int](sim.New(), "x", 0, nil, nil)
}
