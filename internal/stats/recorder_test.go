package stats

import (
	"testing"
	"time"

	"mindgap/internal/sim"
)

func TestRecorderWarmupDiscarded(t *testing.T) {
	var r Recorder
	r.RecordLatency(time.Hour) // before Arm: warmup, dropped
	r.Arm(sim.Time(0))
	r.RecordLatency(time.Microsecond)
	if r.Completed() != 1 {
		t.Fatalf("Completed = %d, want 1", r.Completed())
	}
	if r.Latency.Max() != time.Microsecond {
		t.Fatalf("warmup observation leaked: max=%v", r.Latency.Max())
	}
}

func TestRecorderStop(t *testing.T) {
	var r Recorder
	r.Arm(sim.Time(0))
	r.RecordLatency(time.Microsecond)
	r.Stop(sim.Time(int64(time.Second)))
	r.RecordLatency(time.Microsecond) // after stop: ignored
	r.RecordDrop()
	r.RecordPreemption()
	if r.Completed() != 1 || r.Dropped() != 0 || r.Preemptions() != 0 {
		t.Fatal("post-stop observations were recorded")
	}
	if got := r.Throughput(sim.Time(int64(2 * time.Second))); got != 1 {
		t.Fatalf("Throughput = %v, want 1 (window frozen at Stop)", got)
	}
}

func TestRecorderThroughput(t *testing.T) {
	var r Recorder
	r.Arm(sim.Time(0))
	for i := 0; i < 1000; i++ {
		r.RecordLatency(time.Microsecond)
	}
	now := sim.Time(int64(time.Millisecond))
	if got := r.Throughput(now); got != 1e6 {
		t.Fatalf("Throughput = %v, want 1e6", got)
	}
}

func TestRecorderCounters(t *testing.T) {
	var r Recorder
	r.Arm(sim.Time(0))
	r.RecordDrop()
	r.RecordDrop()
	r.RecordPreemption()
	if r.Dropped() != 2 || r.Preemptions() != 1 {
		t.Fatalf("drops=%d preempts=%d", r.Dropped(), r.Preemptions())
	}
	// Re-arming resets everything.
	r.Arm(sim.Time(5))
	if r.Dropped() != 0 || r.Preemptions() != 0 || r.Completed() != 0 {
		t.Fatal("Arm did not reset counters")
	}
}

func TestBusyTracker(t *testing.T) {
	var b BusyTracker
	b.Arm(sim.Time(0))
	b.SetBusy(sim.Time(0), true)
	b.SetBusy(sim.Time(250), false)
	b.SetBusy(sim.Time(500), true)
	b.SetBusy(sim.Time(750), false)
	got := b.BusyFraction(sim.Time(1000))
	if got != 0.5 {
		t.Fatalf("BusyFraction = %v, want 0.5", got)
	}
	if b.IdleFraction(sim.Time(1000)) != 0.5 {
		t.Fatalf("IdleFraction = %v, want 0.5", b.IdleFraction(sim.Time(1000)))
	}
}

func TestBusyTrackerOpenInterval(t *testing.T) {
	var b BusyTracker
	b.Arm(sim.Time(0))
	b.SetBusy(sim.Time(0), true)
	// Still busy at query time: open interval counts.
	if got := b.BusyFraction(sim.Time(1000)); got != 1.0 {
		t.Fatalf("BusyFraction = %v, want 1.0", got)
	}
}

func TestBusyTrackerRedundantTransitions(t *testing.T) {
	var b BusyTracker
	b.Arm(sim.Time(0))
	b.SetBusy(sim.Time(0), true)
	b.SetBusy(sim.Time(100), true) // redundant: must not restart interval
	b.SetBusy(sim.Time(200), false)
	b.SetBusy(sim.Time(300), false)
	if got := b.BusyFraction(sim.Time(400)); got != 0.5 {
		t.Fatalf("BusyFraction = %v, want 0.5", got)
	}
}

func TestBusyTrackerArmWhileBusy(t *testing.T) {
	var b BusyTracker
	b.SetBusy(sim.Time(0), true)
	b.Arm(sim.Time(1000)) // warmup over; busy interval must restart at 1000
	b.SetBusy(sim.Time(1500), false)
	if got := b.BusyFraction(sim.Time(2000)); got != 0.5 {
		t.Fatalf("BusyFraction = %v, want 0.5", got)
	}
}

func TestBusyTrackerUnarmed(t *testing.T) {
	var b BusyTracker
	b.SetBusy(sim.Time(0), true)
	if b.BusyFraction(sim.Time(100)) != 0 {
		t.Fatal("unarmed tracker should report 0")
	}
}

func TestPointString(t *testing.T) {
	p := Point{OfferedRPS: 100000, AchievedRPS: 99000, P99: 50 * time.Microsecond}
	s := p.String()
	if s == "" {
		t.Fatal("empty point string")
	}
	sat := Point{Saturated: true}
	if got := sat.String(); len(got) <= len(Point{}.String()) {
		t.Fatal("saturated marker missing")
	}
}
