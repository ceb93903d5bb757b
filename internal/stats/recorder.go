package stats

import (
	"fmt"
	"time"

	"mindgap/internal/sim"
)

// Recorder accumulates per-request latency observations plus the counters a
// load-sweep point needs: completions, drops, and the time window over which
// throughput is computed. Warmup observations are excluded by arming the
// recorder only when measurement starts.
type Recorder struct {
	Latency Histogram

	armed     bool
	started   sim.Time
	stopped   sim.Time
	completed int64
	dropped   int64
	preempts  int64
}

// Arm begins measurement at instant now; everything recorded earlier was
// warmup and is discarded.
func (r *Recorder) Arm(now sim.Time) {
	r.Latency.Reset()
	r.completed, r.dropped, r.preempts = 0, 0, 0
	r.armed = true
	r.started = now
	r.stopped = 0
}

// Stop ends the measurement window.
func (r *Recorder) Stop(now sim.Time) {
	r.armed = false
	r.stopped = now
}

// RecordLatency records one completed request's client-observed latency.
func (r *Recorder) RecordLatency(d time.Duration) {
	if !r.armed {
		return
	}
	r.Latency.Record(d)
	r.completed++
}

// RecordDrop counts a request lost for any reason: every terminal drop
// reaches it through the lifecycle probe (probe.Probe.Drop).
func (r *Recorder) RecordDrop() {
	if r.armed {
		r.dropped++
	}
}

// RecordPreemption counts one preemption event.
func (r *Recorder) RecordPreemption() {
	if r.armed {
		r.preempts++
	}
}

// Completed returns the number of requests completed inside the window.
func (r *Recorder) Completed() int64 { return r.completed }

// Dropped returns the number of requests dropped inside the window.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Preemptions returns the number of preemptions inside the window.
func (r *Recorder) Preemptions() int64 { return r.preempts }

// Window returns the measurement window length, using now if the recorder
// has not been stopped yet.
func (r *Recorder) Window(now sim.Time) time.Duration {
	end := r.stopped
	if r.armed || end == 0 {
		end = now
	}
	return end.Sub(r.started)
}

// Throughput returns achieved requests per second over the window.
func (r *Recorder) Throughput(now sim.Time) float64 {
	w := r.Window(now)
	if w <= 0 {
		return 0
	}
	return float64(r.completed) / w.Seconds()
}

// BusyTracker accounts how much of a core's time was spent doing useful
// work versus waiting, the statistic behind the paper's "workers spend 110%
// more time waiting for work" observation (§4).
type BusyTracker struct {
	busySince sim.Time
	busy      bool
	accBusy   time.Duration
	opened    sim.Time
	armed     bool
}

// Arm starts accounting at now, discarding prior state.
func (b *BusyTracker) Arm(now sim.Time) {
	b.accBusy = 0
	b.opened = now
	b.armed = true
	if b.busy {
		b.busySince = now
	}
}

// SetBusy transitions the core's busy state at instant now. Redundant
// transitions are ignored.
func (b *BusyTracker) SetBusy(now sim.Time, busy bool) {
	if busy == b.busy {
		return
	}
	if b.busy && b.armed {
		b.accBusy += now.Sub(b.busySince)
	}
	b.busy = busy
	if busy {
		b.busySince = now
	}
}

// BusyFraction returns the fraction of [arm, now] the core was busy.
func (b *BusyTracker) BusyFraction(now sim.Time) float64 {
	if !b.armed {
		return 0
	}
	total := now.Sub(b.opened)
	if total <= 0 {
		return 0
	}
	busy := b.accBusy
	if b.busy {
		busy += now.Sub(b.busySince)
	}
	return float64(busy) / float64(total)
}

// IdleFraction is 1 − BusyFraction.
func (b *BusyTracker) IdleFraction(now sim.Time) float64 {
	return 1 - b.BusyFraction(now)
}

// Point is one measured point of a load sweep: the row format behind every
// figure in the paper.
type Point struct {
	// OfferedRPS is the open-loop arrival rate.
	OfferedRPS float64
	// AchievedRPS is the measured completion rate.
	AchievedRPS float64
	// P50, P99, Mean, Max describe client-observed latency.
	P50, P99, Mean, Max time.Duration
	// Completed and Dropped are raw counts inside the window.
	Completed, Dropped int64
	// Preemptions inside the window.
	Preemptions int64
	// WorkerIdleFraction is the mean idle fraction across worker cores.
	WorkerIdleFraction float64
	// Saturated is set when the system failed to keep up with the offered
	// load (achieved < 97% of offered) — the point where tail curves shoot
	// up in the paper's figures.
	Saturated bool
}

// String renders the point as a human-readable table row.
func (p Point) String() string {
	sat := ""
	if p.Saturated {
		sat = " SATURATED"
	}
	return fmt.Sprintf("offered=%9.0f rps achieved=%9.0f rps p50=%8v p99=%8v idle=%5.1f%%%s",
		p.OfferedRPS, p.AchievedRPS, p.P50, p.P99, p.WorkerIdleFraction*100, sat)
}
