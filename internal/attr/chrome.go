package attr

import (
	"fmt"

	"mindgap/internal/trace"
)

// Chrome trace export extensions: the collector renders its retained
// timelines and decision stream as additional tracks alongside the trace
// package's scheduler/worker view.
//
//   - pid 3 "phases": one thread row per phase; every retained request
//     contributes a complete slice (ph "X") on the row of each phase it
//     passed through, so a phase row shows when requests occupied that
//     phase and the tail's host-queue pile-up is visible at a glance.
//   - pid 4 "audit": counter tracks (ph "C") from the retained decision
//     samples — cumulative mis-dispatch rate, estimate staleness, and
//     per-decision excess backlog.
const (
	chromePidPhases = 3
	chromePidAudit  = 4
)

// ChromeEvents renders the retained timelines (KeepTimelines) and audit
// samples (AuditSamples) as Chrome trace events, ready to append to a
// trace.Buffer export via trace.WriteChromeWith.
func (c *Collector) ChromeEvents() []trace.ChromeEvent {
	if c == nil {
		return nil
	}
	var events []trace.ChromeEvent
	if len(c.timelines) > 0 {
		events = append(events, trace.MetaEvent("process_name", chromePidPhases, 0, "phases"))
		for p := Phase(0); p < PhaseCount; p++ {
			events = append(events,
				trace.MetaEvent("thread_name", chromePidPhases, int(p), p.String()))
		}
		for _, tl := range c.timelines {
			name := fmt.Sprintf("req %d", tl.ReqID)
			for _, seg := range tl.Segments {
				dur := trace.ToMicros(seg.To) - trace.ToMicros(seg.From)
				events = append(events, trace.ChromeEvent{
					Name: name, Cat: "phase", Ph: "X",
					Ts: trace.ToMicros(seg.From), Dur: &dur,
					Pid: chromePidPhases, Tid: int(seg.Phase),
					Args: map[string]any{"phase": seg.Phase.String()},
				})
			}
		}
	}
	if len(c.audit.samples) > 0 {
		events = append(events, trace.MetaEvent("process_name", chromePidAudit, 0, "audit"))
		for _, s := range c.audit.samples {
			rate := 0.0
			if s.Decisions > 0 {
				rate = float64(s.MisDispatches) / float64(s.Decisions)
			}
			ts := trace.ToMicros(s.At)
			events = append(events,
				trace.ChromeEvent{
					Name: "mis_dispatch_rate", Ph: "C", Ts: ts,
					Pid: chromePidAudit, Tid: 0,
					Args: map[string]any{"rate": rate},
				},
				trace.ChromeEvent{
					Name: "staleness_us", Ph: "C", Ts: ts,
					Pid: chromePidAudit, Tid: 0,
					Args: map[string]any{"us": float64(s.Staleness) / 1e3},
				},
				trace.ChromeEvent{
					Name: "excess_us", Ph: "C", Ts: ts,
					Pid: chromePidAudit, Tid: 0,
					Args: map[string]any{"us": float64(s.Excess) / 1e3},
				},
			)
		}
	}
	return events
}
