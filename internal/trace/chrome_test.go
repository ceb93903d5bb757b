package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mindgap/internal/sim"
)

// buildLifecycle records one full request lifecycle with a preemption and
// a migration (worker 0 → worker 1).
func buildLifecycle(b *Buffer, id uint64, base sim.Time) {
	b.Record(base, Arrive, id, -1)
	b.Record(base+100, Ingress, id, -1)
	b.Record(base+200, Enqueue, id, -1)
	b.Record(base+300, Dispatch, id, 0)
	b.Record(base+400, Start, id, 0)
	b.Record(base+900, Preempt, id, 0)
	b.Record(base+1000, Enqueue, id, -1)
	b.Record(base+1100, Dispatch, id, 1)
	b.Record(base+1200, Start, id, 1)
	b.Record(base+1500, Complete, id, 1)
	b.Record(base+1600, Respond, id, -1)
}

func TestWriteChromeValidJSON(t *testing.T) {
	b := New(0)
	buildLifecycle(b, 1, 0)
	buildLifecycle(b, 2, 5000)
	b.Record(10_000, Arrive, 3, -1)
	b.Record(10_100, Ingress, 3, -1)
	b.Record(10_200, Drop, 3, -1)
	if err := b.ValidateAll(); err != nil {
		t.Fatalf("fixture trace invalid: %v", err)
	}

	var buf bytes.Buffer
	if err := WriteChromeWith(&buf, b, nil); err != nil {
		t.Fatal(err)
	}
	var ct ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if ct.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", ct.DisplayTimeUnit)
	}

	var (
		slices    []ChromeEvent
		asyncOpen = map[string]int{}
		meta      = map[string]bool{}
	)
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "M":
			name, _ := e.Args["name"].(string)
			meta[name] = true
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("slice %q has invalid dur", e.Name)
			}
			if e.Pid != chromePidWorkers {
				t.Fatalf("slice %q on pid %d", e.Name, e.Pid)
			}
			slices = append(slices, e)
		case "b":
			asyncOpen[e.ID]++
		case "e":
			asyncOpen[e.ID]--
		case "n":
			if e.ID == "" {
				t.Fatalf("async instant %q missing id", e.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}

	// Async begin/end must balance per request span.
	for id, n := range asyncOpen {
		if n != 0 {
			t.Fatalf("async span %s unbalanced (%+d)", id, n)
		}
	}
	if len(asyncOpen) != 3 {
		t.Fatalf("async spans for %d requests, want 3", len(asyncOpen))
	}

	// Requests 1 and 2 each ran two segments (preempted then resumed).
	if len(slices) != 4 {
		t.Fatalf("execution slices = %d, want 4", len(slices))
	}
	// The preempted segment sits on worker 0, the resumed one on worker 1.
	if slices[0].Tid != 0 || slices[1].Tid != 1 {
		t.Fatalf("slice tids = %d,%d, want 0,1", slices[0].Tid, slices[1].Tid)
	}
	if got := *slices[0].Dur; got != 0.5 { // 500ns = 0.5µs
		t.Fatalf("first slice dur = %gµs, want 0.5", got)
	}

	for _, name := range []string{"scheduler", "workers", "worker 0", "worker 1"} {
		if !meta[name] {
			t.Fatalf("missing track metadata %q", name)
		}
	}
}

func TestWriteChromeDroppedRequestHasNoSlices(t *testing.T) {
	b := New(0)
	b.Record(0, Arrive, 7, -1)
	b.Record(50, Ingress, 7, -1)
	b.Record(80, Drop, 7, -1)

	var buf bytes.Buffer
	if err := WriteChromeWith(&buf, b, nil); err != nil {
		t.Fatal(err)
	}
	var ct ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	sawDropInstant := false
	for _, e := range ct.TraceEvents {
		if e.Ph == "X" {
			t.Fatalf("dropped request produced execution slice %q", e.Name)
		}
		if e.Ph == "n" && e.Name == "drop" {
			sawDropInstant = true
		}
	}
	if !sawDropInstant {
		t.Fatal("drop instant not emitted")
	}
}

func TestWriteChromeInFlightRequestBalanced(t *testing.T) {
	b := New(0)
	b.Record(0, Arrive, 9, -1)
	b.Record(100, Enqueue, 9, -1)
	b.Record(200, Dispatch, 9, 0)
	b.Record(300, Start, 9, 0) // halted mid-execution

	var buf bytes.Buffer
	if err := WriteChromeWith(&buf, b, nil); err != nil {
		t.Fatal(err)
	}
	var ct ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	open := 0
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "b":
			open++
		case "e":
			open--
		}
	}
	if open != 0 {
		t.Fatalf("in-flight request leaves %+d unbalanced async spans", open)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	b := New(0)
	buildLifecycle(b, 4, 0)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, b); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		AtNS   int64  `json:"at_ns"`
		Kind   string `json:"kind"`
		ReqID  uint64 `json:"req"`
		Worker int    `json:"worker"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("raw JSON export invalid: %v", err)
	}
	if len(events) != b.Len() {
		t.Fatalf("exported %d events, want %d", len(events), b.Len())
	}
	if events[0].Kind != "arrive" || events[len(events)-1].Kind != "respond" {
		t.Fatalf("event order wrong: first=%q last=%q", events[0].Kind, events[len(events)-1].Kind)
	}
	if !strings.Contains(buf.String(), `"kind":"preempt"`) {
		t.Fatal("preempt event missing from raw export")
	}
}
