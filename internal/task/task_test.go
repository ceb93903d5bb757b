package task

import (
	"testing"
	"time"

	"mindgap/internal/sim"
)

func TestNew(t *testing.T) {
	r := New(42, sim.Time(1000), 5*time.Microsecond)
	if r.ID != 42 || r.Arrival != sim.Time(1000) {
		t.Fatalf("identity fields wrong: %+v", r)
	}
	if r.Service != 5*time.Microsecond || r.Remaining != r.Service {
		t.Fatalf("service fields wrong: %+v", r)
	}
	if r.LastWorker != NoWorker {
		t.Fatalf("LastWorker = %d, want NoWorker", r.LastWorker)
	}
	if r.Done() {
		t.Fatal("fresh request reports done")
	}
}

func TestDone(t *testing.T) {
	r := New(1, 0, time.Microsecond)
	r.Remaining = 0
	if !r.Done() {
		t.Fatal("zero remaining not done")
	}
	r.Remaining = -1
	if !r.Done() {
		t.Fatal("negative remaining not done")
	}
}

func TestLatency(t *testing.T) {
	r := New(1, sim.Time(2000), time.Microsecond)
	if got := r.Latency(sim.Time(9000)); got != 7*time.Microsecond {
		t.Fatalf("Latency = %v, want 7µs", got)
	}
}

// TestWarmPoolCycleZeroAlloc: once the pool has seen its peak of live
// requests, a Get/Put cycle over a rolling window of in-flight requests is
// a free-list pop and push — no allocation, and no growth of the peak.
func TestWarmPoolCycleZeroAlloc(t *testing.T) {
	var pool Pool
	const window = 256
	ring := make([]*Request, window)
	next := 0
	cycle := func() {
		for i := 0; i < 4*window; i++ {
			slot := next % window
			if r := ring[slot]; r != nil {
				pool.Put(r)
			}
			ring[slot] = pool.Get(uint64(next), sim.Time(next), time.Microsecond)
			next++
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("warm Get/Put cycle allocates %.0f objects per %d requests, want 0", allocs, 4*window)
	}
	if pool.HighWater() != window || pool.Live() != window {
		t.Fatalf("HighWater = %d, Live = %d, want %d", pool.HighWater(), pool.Live(), window)
	}
}
