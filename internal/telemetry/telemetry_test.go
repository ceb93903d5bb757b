package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()

	depth := 7
	reg.GaugeFunc("queue", "depth", func() float64 { return float64(depth) })
	if v, ok := reg.Snapshot().Gauges["queue/depth"]; !ok || v != 7 {
		t.Fatalf("queue/depth = %g, %v", v, ok)
	}
	depth = 9
	if v := reg.Snapshot().Gauges["queue/depth"]; v != 9 {
		t.Fatalf("probe gauge not re-evaluated: %g", v)
	}
	reg.GaugeFunc("queue", "depth", func() float64 { return 1 })
	if v := reg.Snapshot().Gauges["queue/depth"]; v != 1 {
		t.Fatalf("re-registered probe not used: %g", v)
	}
}

func TestNilGaugeProbePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil gauge probe did not panic")
		}
	}()
	NewRegistry().GaugeFunc("x", "y", nil)
}

func TestSnapshotFormats(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("a", "events", func() float64 { return 3 })
	reg.GaugeFunc("b", "depth", func() float64 { return 1.5 })

	snap := reg.Snapshot()
	if snap.Gauges["a/events"] != 3 || snap.Gauges["b/depth"] != 1.5 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}

	var jsonBuf bytes.Buffer
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Gauges["a/events"] != 3 || round.Gauges["b/depth"] != 1.5 {
		t.Fatalf("round-tripped snapshot wrong: %+v", round)
	}

	var txtBuf bytes.Buffer
	if err := snap.WriteText(&txtBuf); err != nil {
		t.Fatal(err)
	}
	if txt, want := txtBuf.String(), "a/events 3\nb/depth 1.5\n"; txt != want {
		t.Fatalf("text format wrong:\n%s", txt)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var mu sync.Mutex
	n := 0
	reg.GaugeFunc("g", "n", func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return float64(n)
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				mu.Lock()
				n++
				mu.Unlock()
				reg.GaugeFunc("r", "last", func() float64 { return 0 })
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := reg.Snapshot().Gauges["g/n"]; got != 8000 {
		t.Fatalf("gauge = %g, want 8000", got)
	}
}
