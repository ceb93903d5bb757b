package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()

	c := reg.Counter("sched", "shed")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("sched", "shed") != c {
		t.Fatal("Counter is not get-or-create")
	}

	g := reg.Gauge("worker0", "load")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %g, want 3", got)
	}

	depth := 7
	reg.GaugeFunc("queue", "depth", func() float64 { return float64(depth) })
	if v, ok := reg.GaugeValue("queue/depth"); !ok || v != 7 {
		t.Fatalf("GaugeValue(queue/depth) = %g, %v", v, ok)
	}
	depth = 9
	if v, _ := reg.GaugeValue("queue/depth"); v != 9 {
		t.Fatalf("probe gauge not re-evaluated: %g", v)
	}

	drops := uint64(3)
	reg.CounterFunc("nic", "drops", func() uint64 { return drops })
	drops = 4
	if got := reg.Snapshot().Counters["nic/drops"]; got != 4 {
		t.Fatalf("snapshot lists the probe counter as %d, want 4 re-evaluated at read time", got)
	}

	h := reg.Histogram("fabric", "latency")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	sum := h.Summary()
	if sum.Count != 100 {
		t.Fatalf("histogram count = %d, want 100", sum.Count)
	}
	if sum.P50 < 49*time.Microsecond || sum.P50 > 52*time.Microsecond {
		t.Fatalf("histogram p50 = %v", sum.P50)
	}
}

func TestSetOnProbeGaugePanics(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("x", "y", func() float64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("Set on probe-backed gauge did not panic")
		}
	}()
	reg.gauges["x/y"].Set(1)
}

func TestSnapshotFormats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a", "events").Add(3)
	reg.Gauge("b", "depth").Set(1.5)
	reg.Histogram("c", "lat").Observe(10 * time.Microsecond)

	snap := reg.Snapshot()
	if snap.Counters["a/events"] != 3 || snap.Gauges["b/depth"] != 1.5 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	if snap.Histograms["c/lat"].Count != 1 {
		t.Fatalf("snapshot histogram wrong: %+v", snap.Histograms)
	}

	var jsonBuf bytes.Buffer
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["a/events"] != 3 {
		t.Fatalf("round-tripped snapshot wrong: %+v", round)
	}

	var csvBuf bytes.Buffer
	if err := snap.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	csv := csvBuf.String()
	for _, want := range []string{
		"kind,key,field,value",
		"counter,a/events,value,3",
		"gauge,b/depth,value,1.5",
		"histogram,c/lat,count,1",
	} {
		if !strings.Contains(csv, want) {
			t.Fatalf("CSV missing %q:\n%s", want, csv)
		}
	}

	var txtBuf bytes.Buffer
	if err := snap.WriteText(&txtBuf); err != nil {
		t.Fatal(err)
	}
	txt := txtBuf.String()
	if !strings.Contains(txt, "a/events 3\n") || !strings.Contains(txt, "b/depth 1.5\n") {
		t.Fatalf("text format wrong:\n%s", txt)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c", "n").Inc()
				reg.Gauge("g", "v").Add(1)
				reg.Histogram("h", "lat").Observe(time.Microsecond)
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c", "n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got, _ := reg.GaugeValue("g/v"); got != 8000 {
		t.Fatalf("gauge = %g, want 8000", got)
	}
	if got := reg.Histogram("h", "lat").Summary().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
