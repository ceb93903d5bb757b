package stats

import (
	"fmt"
	"io"
	"time"

	"mindgap/internal/sim"
)

// TimeSeries samples a scalar (queue depth, provisioned cores, utilization)
// at a fixed simulated-time cadence, for queue-dynamics plots and for
// assertions about transient behaviour (e.g. "the backlog drains within
// 2 ms of the burst ending").
type TimeSeries struct {
	eng      *sim.Engine
	interval time.Duration
	probe    func() float64

	times  []sim.Time
	values []float64
	max    int
	timer  *sim.Timer
}

// NewTimeSeries starts sampling probe every interval, keeping at most max
// samples (0 = 1<<20). Sampling begins one interval from now and stops
// when the buffer fills or Stop is called.
func NewTimeSeries(eng *sim.Engine, interval time.Duration, max int, probe func() float64) *TimeSeries {
	if interval <= 0 {
		panic("stats: sampling interval must be positive")
	}
	if probe == nil {
		panic("stats: sampling probe required")
	}
	if max <= 0 {
		max = 1 << 20
	}
	ts := &TimeSeries{eng: eng, interval: interval, probe: probe, max: max}
	ts.arm()
	return ts
}

func (ts *TimeSeries) arm() {
	ts.timer = ts.eng.AfterTimerE(ts.interval, sampleTimeSeries, ts, nil, 0)
}

// sampleTimeSeries is the sampling timer's expiry: record one sample and
// re-arm until the buffer is full.
func sampleTimeSeries(recv, _ any, _ uint64) {
	ts := recv.(*TimeSeries)
	ts.times = append(ts.times, ts.eng.Now())
	ts.values = append(ts.values, ts.probe())
	if len(ts.values) < ts.max {
		ts.arm()
	}
}

// Stop ends sampling.
func (ts *TimeSeries) Stop() { ts.timer.Stop() }

// Len returns the number of samples taken.
func (ts *TimeSeries) Len() int { return len(ts.values) }

// At returns the i-th sample.
func (ts *TimeSeries) At(i int) (sim.Time, float64) { return ts.times[i], ts.values[i] }

// Values returns the sampled values.
func (ts *TimeSeries) Values() []float64 { return ts.values }

// Max returns the largest sampled value (0 when empty).
func (ts *TimeSeries) Max() float64 {
	m := 0.0
	for _, v := range ts.values {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the mean sampled value (0 when empty).
func (ts *TimeSeries) Mean() float64 {
	if len(ts.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range ts.values {
		sum += v
	}
	return sum / float64(len(ts.values))
}

// LastBelow returns the first instant after which every sample stays at or
// below threshold, and ok=false if the series never settles.
func (ts *TimeSeries) LastBelow(threshold float64) (sim.Time, bool) {
	settled := -1
	for i, v := range ts.values {
		if v > threshold {
			settled = -1
		} else if settled < 0 {
			settled = i
		}
	}
	if settled < 0 {
		return 0, false
	}
	return ts.times[settled], true
}

// WriteCSV emits "time_ns,value" rows.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time_ns,value"); err != nil {
		return err
	}
	for i := range ts.values {
		if _, err := fmt.Fprintf(w, "%d,%g\n", int64(ts.times[i]), ts.values[i]); err != nil {
			return err
		}
	}
	return nil
}
