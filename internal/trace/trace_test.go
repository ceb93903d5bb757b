package trace

import (
	"strings"
	"testing"
	"unsafe"

	"mindgap/internal/sim"
)

func TestKindString(t *testing.T) {
	if Arrive.String() != "arrive" || Respond.String() != "respond" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestRecordAndLifecycle(t *testing.T) {
	b := New(100)
	b.Record(0, Arrive, 1, -1)
	b.Record(5, Ingress, 1, -1)
	b.Record(7, Enqueue, 1, -1)
	b.Record(9, Dispatch, 1, 2)
	b.Record(12, Start, 1, 2)
	b.Record(20, Complete, 1, 2)
	b.Record(25, Respond, 1, -1)
	// Interleave another request.
	b.Record(3, Arrive, 2, -1)

	lc := b.Lifecycle(1)
	if len(lc) != 7 {
		t.Fatalf("lifecycle events = %d", len(lc))
	}
	for i := 1; i < len(lc); i++ {
		if lc[i].At < lc[i-1].At {
			t.Fatal("lifecycle not time-ordered")
		}
	}
	if err := b.Validate(1); err != nil {
		t.Fatalf("valid lifecycle rejected: %v", err)
	}
	reqs := b.Requests()
	if len(reqs) != 2 || reqs[0] != 1 || reqs[1] != 2 {
		t.Fatalf("Requests = %v", reqs)
	}
	if !strings.Contains(b.Format(1), "dispatch req=1 w=2") {
		t.Fatalf("Format output:\n%s", b.Format(1))
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"complete without start", []Event{
			{At: 0, Kind: Arrive, ReqID: 1, Worker: -1}, {At: 5, Kind: Complete, ReqID: 1, Worker: 0},
		}},
		{"respond before complete", []Event{
			{At: 0, Kind: Arrive, ReqID: 1, Worker: -1}, {At: 1, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 2, Kind: Start, ReqID: 1, Worker: 0}, {At: 3, Kind: Respond, ReqID: 1, Worker: -1},
		}},
		{"double completion", []Event{
			{At: 0, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 1, Kind: Start, ReqID: 1, Worker: 0}, {At: 2, Kind: Complete, ReqID: 1, Worker: 0}, {At: 3, Kind: Complete, ReqID: 1, Worker: 0},
		}},
		{"start without dispatch", []Event{
			{At: 0, Kind: Arrive, ReqID: 1, Worker: -1}, {At: 1, Kind: Start, ReqID: 1, Worker: 0},
		}},
		{"preempt before start", []Event{
			{At: 0, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 1, Kind: Preempt, ReqID: 1, Worker: 0},
		}},
		{"drop after complete", []Event{
			{At: 0, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 1, Kind: Start, ReqID: 1, Worker: 0}, {At: 2, Kind: Complete, ReqID: 1, Worker: 0}, {At: 3, Kind: Drop, ReqID: 1, Worker: -1},
		}},
		{"arrive mid-trace", []Event{
			{At: 0, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 1, Kind: Arrive, ReqID: 1, Worker: -1},
		}},
	}
	for _, tc := range cases {
		b := New(100)
		for _, e := range tc.events {
			b.Record(e.At, e.Kind, e.ReqID, e.Worker)
		}
		if err := b.Validate(1); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestValidateUnknownRequest(t *testing.T) {
	b := New(10)
	if err := b.Validate(99); err == nil {
		t.Fatal("empty lifecycle accepted")
	}
}

func TestPreemptionCycleIsLegal(t *testing.T) {
	b := New(100)
	steps := []Event{
		{At: 0, Kind: Arrive, ReqID: 1, Worker: -1}, {At: 1, Kind: Enqueue, ReqID: 1, Worker: -1},
		{At: 2, Kind: Dispatch, ReqID: 1, Worker: 0}, {At: 3, Kind: Start, ReqID: 1, Worker: 0}, {At: 13, Kind: Preempt, ReqID: 1, Worker: 0},
		{At: 14, Kind: Enqueue, ReqID: 1, Worker: -1}, {At: 15, Kind: Dispatch, ReqID: 1, Worker: 1}, {At: 16, Kind: Start, ReqID: 1, Worker: 1},
		{At: 20, Kind: Complete, ReqID: 1, Worker: 1}, {At: 22, Kind: Respond, ReqID: 1, Worker: -1},
	}
	for _, e := range steps {
		b.Record(e.At, e.Kind, e.ReqID, e.Worker)
	}
	if err := b.Validate(1); err != nil {
		t.Fatalf("legal preemption cycle rejected: %v", err)
	}
	if err := b.ValidateAll(); err != nil {
		t.Fatalf("ValidateAll: %v", err)
	}
}

func TestBufferCapacity(t *testing.T) {
	b := New(3)
	for i := 0; i < 5; i++ {
		b.Record(sim.Time(i), Arrive, uint64(i), -1)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if b.Truncated() != 2 {
		t.Fatalf("Truncated = %d, want 2", b.Truncated())
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 100, Kind: Start, ReqID: 7, Worker: 3}
	if !strings.Contains(e.String(), "w=3") {
		t.Fatalf("Event.String = %q", e.String())
	}
	e.Worker = -1
	if strings.Contains(e.String(), "w=") {
		t.Fatalf("workerless event mentions worker: %q", e.String())
	}
}

func TestBufferAllocatedOnce(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 32 {
		t.Fatalf("Event is %d bytes, want 32", size)
	}
	const n = 64 << 10
	b := New(n)
	first := &b.events[:1][0]
	for i := 0; i < n+10; i++ {
		b.Record(sim.Time(i), Arrive, uint64(i), -1)
	}
	if b.Len() != n || b.Truncated() != 10 || &b.events[0] != first {
		t.Fatalf("len %d, truncated %d, regrown %v", b.Len(), b.Truncated(), &b.events[0] != first)
	}
}
