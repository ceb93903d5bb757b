// Package trace records request lifecycle events inside a simulated
// system: when a request arrived on the wire, entered the central queue,
// was dispatched, started executing, was preempted, completed, and when
// its response reached the client. Traces serve two purposes: debugging
// scheduling models, and asserting causal well-formedness in tests (a
// request must not complete before it starts, every dispatch must follow
// an enqueue, and so on).
package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"mindgap/internal/sim"
)

// Kind labels one lifecycle step.
type Kind uint8

// Lifecycle steps, in their only legal relative order (Preempt/Requeue/
// Dispatch/Start may repeat as a group).
const (
	// Arrive: the client transmitted the request.
	Arrive Kind = iota
	// Ingress: the request reached the scheduler's networking subsystem.
	Ingress
	// Enqueue: the request entered the central queue.
	Enqueue
	// Dispatch: the scheduler assigned the request to a worker.
	Dispatch
	// Start: a worker core began (or resumed) executing.
	Start
	// Preempt: the slice expired or an interrupt landed.
	Preempt
	// Complete: the request finished all its work.
	Complete
	// Respond: the response reached the client.
	Respond
	// Drop: the request was lost (full queue or an injected fault).
	Drop
	kindCount
)

var kindNames = [...]string{
	"arrive", "ingress", "enqueue", "dispatch", "start", "preempt",
	"complete", "respond", "drop",
}

// String returns the step name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DropReason classifies why a request was dropped. The zero value means
// "unspecified" and keeps events recorded through Record byte-identical
// to traces taken before reasons existed.
type DropReason uint8

const (
	// DropUnspecified is the zero value: no reason was recorded.
	DropUnspecified DropReason = iota
	// DropQueueCap: flowrule's slow-path queue was full (policy).
	DropQueueCap
	// DropTimeout: the dispatch timeout machinery exhausted its retry
	// budget — the request was lost to an injected fault and abandoned.
	DropTimeout
	// DropWireFault: the frame carrying the request was lost to an
	// injected fabric fault (a fabric.Link drop fault) with no
	// retry machinery guarding it — a permanent fault loss.
	DropWireFault
	// DropRingOverflow: the frame arrived at a full RX descriptor ring
	// while no credit scheme protected it (degraded steering).
	DropRingOverflow
	dropReasonCount
)

// DropReasonCount is the number of distinct drop reasons (array sizing).
const DropReasonCount = int(dropReasonCount)

var dropReasonNames = [...]string{
	"", "queue-cap", "timeout", "wire-fault", "ring-overflow",
}

// String returns the reason name ("" for DropUnspecified).
func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) {
		return dropReasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Event is one recorded lifecycle step. The two one-byte fields sit last
// so an Event packs into 32 bytes.
type Event struct {
	At     sim.Time
	ReqID  uint64
	Worker int // meaningful for Dispatch/Start/Preempt/Complete; else -1
	Kind   Kind
	// Reason is set on Drop events that carry one; zero everywhere else.
	Reason DropReason
}

// String renders the event compactly.
func (e Event) String() string {
	var suffix string
	if e.Kind == Drop && e.Reason != DropUnspecified {
		suffix = " reason=" + e.Reason.String()
	}
	if e.Worker >= 0 {
		return fmt.Sprintf("%v %s req=%d w=%d%s", e.At, e.Kind, e.ReqID, e.Worker, suffix)
	}
	return fmt.Sprintf("%v %s req=%d%s", e.At, e.Kind, e.ReqID, suffix)
}

// Buffer accumulates events up to a capacity; once full, further events
// are counted but not stored (a trace is a debugging window, not a log).
// The zero value is unusable; use New.
type Buffer struct {
	max     int
	events  []Event
	dropped uint64
}

// New creates a buffer holding at most max events (max <= 0 means an
// effectively unbounded debug buffer). Up to 64 Ki events (2 MiB) are
// allocated at once, so a buffer that size never regrows while recording.
func New(max int) *Buffer {
	if max <= 0 {
		max = 1 << 20
	}
	return &Buffer{max: max, events: make([]Event, 0, min(max, 64<<10))}
}

// Record appends a lifecycle event if capacity remains.
func (b *Buffer) Record(at sim.Time, kind Kind, reqID uint64, worker int) {
	b.Add(Event{At: at, Kind: kind, ReqID: reqID, Worker: worker})
}

// Add appends a fully-formed event if capacity remains — the way to record
// a Drop carrying the reason the request was lost, so attribution can
// distinguish policy drops (queue cap) from injected-fault losses.
func (b *Buffer) Add(e Event) {
	if len(b.events) >= b.max {
		b.dropped++
		return
	}
	b.events = append(b.events, e)
}

// Len returns the number of stored events.
func (b *Buffer) Len() int { return len(b.events) }

// Truncated returns how many events did not fit.
func (b *Buffer) Truncated() uint64 { return b.dropped }

// Events returns all stored events in record order.
func (b *Buffer) Events() []Event { return b.events }

// Lifecycle returns the events of one request in time order.
func (b *Buffer) Lifecycle(reqID uint64) []Event {
	var out []Event
	for _, e := range b.events {
		if e.ReqID == reqID {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Requests returns the distinct request IDs present in the buffer.
func (b *Buffer) Requests() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, e := range b.events {
		if !seen[e.ReqID] {
			seen[e.ReqID] = true
			out = append(out, e.ReqID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Format renders a request's lifecycle as one line per event.
func (b *Buffer) Format(reqID uint64) string {
	var sb strings.Builder
	for _, e := range b.Lifecycle(reqID) {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// WriteText prints the first n lifecycles that completed (with
// preemptedOnly, only those preempted at least once), one indented line
// per event, then a summary line: the text twin of WriteJSON.
func WriteText(w io.Writer, b *Buffer, n int, preemptedOnly bool) {
	printed := 0
	for _, id := range b.Requests() {
		if printed >= n {
			break
		}
		lc := b.Lifecycle(id)
		if len(lc) == 0 || lc[len(lc)-1].Kind != Respond {
			continue // still in flight at halt
		}
		if preemptedOnly && !slices.ContainsFunc(lc, func(e Event) bool { return e.Kind == Preempt }) {
			continue
		}
		fmt.Fprintf(w, "request %d (%d events, latency %v):\n", id, len(lc), lc[len(lc)-1].At.Sub(lc[0].At))
		for _, e := range lc {
			fmt.Fprintf(w, "  %v\n", e)
		}
		printed++
	}
	if printed == 0 {
		fmt.Fprintln(w, "no matching lifecycles; try -show any or a longer run")
	}
	fmt.Fprintf(w, "traced %d events across %d requests (%d truncated)\n", b.Len(), len(b.Requests()), b.Truncated())
}

// Validate checks the causal well-formedness of one request's lifecycle.
// It returns nil for incomplete traces (a request still in flight) as long
// as the prefix is legal.
func (b *Buffer) Validate(reqID uint64) error {
	evs := b.Lifecycle(reqID)
	if len(evs) == 0 {
		return fmt.Errorf("trace: no events for request %d", reqID)
	}
	var started, completed, dropped int
	var dispatched, preempted int
	prev := sim.Time(-1)
	for i, e := range evs {
		if e.At < prev {
			return fmt.Errorf("trace: request %d event %d goes back in time", reqID, i)
		}
		prev = e.At
		switch e.Kind {
		case Arrive:
			if i != 0 {
				return fmt.Errorf("trace: request %d arrives mid-trace", reqID)
			}
		case Dispatch:
			dispatched++
		case Start:
			started++
			if started > dispatched {
				return fmt.Errorf("trace: request %d started more times than dispatched", reqID)
			}
		case Preempt:
			preempted++
			if preempted > started {
				return fmt.Errorf("trace: request %d preempted before starting", reqID)
			}
		case Complete:
			completed++
			if completed > 1 {
				return fmt.Errorf("trace: request %d completed twice", reqID)
			}
			if started == 0 {
				return fmt.Errorf("trace: request %d completed without starting", reqID)
			}
		case Respond:
			if completed == 0 {
				return fmt.Errorf("trace: request %d responded before completing", reqID)
			}
		case Drop:
			dropped++
			if completed > 0 {
				return fmt.Errorf("trace: request %d dropped after completing", reqID)
			}
		}
	}
	if completed > 0 && dropped > 0 {
		return fmt.Errorf("trace: request %d both completed and dropped", reqID)
	}
	return nil
}

// ValidateAll validates every request in the buffer.
func (b *Buffer) ValidateAll() error {
	for _, id := range b.Requests() {
		if err := b.Validate(id); err != nil {
			return err
		}
	}
	return nil
}
