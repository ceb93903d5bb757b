package fabric

import (
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
	if l.Delivered() != 1 {
		t.Fatalf("Delivered = %d", l.Delivered())
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

func TestLinkBoundedQueueDrops(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, "wire", LinkConfig{Latency: 0, BandwidthBps: 8e9, QueueLimit: 2})
	delivered := 0
	ok1 := l.Send(1000, func() { delivered++ }) // serializing µs-scale
	ok2 := l.Send(1000, func() { delivered++ })
	ok3 := l.Send(1000, func() { delivered++ }) // third still fits (2 queued)? queued=2 now
	if !ok1 || !ok2 {
		t.Fatal("first two sends rejected")
	}
	_ = ok3
	// Queue limit 2: after two sends queued=2, so the third is dropped.
	if ok3 {
		t.Fatalf("third send accepted with QueueLimit=2, queued=%d", l.Queued())
	}
	if l.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", l.Dropped())
	}
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
	// After draining, capacity is available again.
	if !l.Send(1000, func() { delivered++ }) {
		t.Fatal("send after drain rejected")
	}
	eng.Run()
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3", delivered)
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

func TestStageUtilization(t *testing.T) {
	eng := sim.New()
	s := NewStage[int](eng, "arm", 0, FixedCost[int](time.Microsecond), func(int) {})
	s.BusyTracker().Arm(0)
	reg := telemetry.NewRegistry()
	s.RegisterTelemetry(reg, "arm")
	s.Submit(1)
	eng.Run()
	eng.RunUntil(sim.Time(2000))
	got := s.BusyTracker().BusyFraction(eng.Now())
	if got != 0.5 {
		t.Fatalf("busy fraction = %v, want 0.5", got)
	}
	// A Stage's gauges are the one-class set: no per-class breakdown.
	want := []string{"arm/busy", "arm/dropped", "arm/processed", "arm/queue_depth", "arm/utilization"}
	if keys := reg.GaugeKeys(); !slices.Equal(keys, want) {
		t.Fatalf("stage gauges = %v, want %v", keys, want)
	}
	if u, _ := reg.GaugeValue("arm/utilization"); u != 0.5 {
		t.Fatalf("utilization gauge = %v, want 0.5", u)
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
