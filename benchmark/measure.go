package main

import (
	"sort"
	"syscall"
	"time"
)

// stat summarises one metric's samples over the timed reps of a run.
type stat struct {
	Unit   string  `json:"unit"`
	Reps   int     `json:"reps"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func summarise(unit string, xs []float64) stat {
	s := sortedCopy(xs)
	return stat{
		Unit:   unit,
		Reps:   len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// cpuSeconds is user+sys CPU time consumed by this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// The noise canary. The reference box is a shared machine whose speed moves
// by 5-30 % for seconds to minutes at a time, which no statistic over the
// reps of one run can remove. A fixed loop that does the same work every
// time is therefore timed throughout each run: its drift marks a run noisy,
// and its median gives the run's speed relative to canaryRefMS, by which the
// end-to-end metrics are scaled (see README.md, "Noise").

// canaryRefMS is one canary pass on the reference box at its usual speed.
const canaryRefMS = 4.0

// canaryLimit is the canary drift beyond which a run is marked noisy.
const canaryLimit = 0.10

// canaryTable is the pass's working set: 512 KiB, so that the loop feels
// cache contention as well as a slower clock, as the simulator does, yet
// warms up in a few microseconds: a pass costs the same whatever ran
// before it (a rep, a child process, nothing).
var canaryTable [1 << 16]uint64

// canary records the passes of one run, in milliseconds.
type canary struct{ passes []float64 }

// pass times the fixed loop once (~4 ms): xorshift arithmetic driving
// random read-modify-writes into canaryTable.
func (c *canary) pass() {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		canaryTable[x&(1<<16-1)] += x
	}
	c.passes = append(c.passes, time.Since(start).Seconds()*1e3)
}

// burst times n passes back to back, where a run has no reps to put single
// passes between.
func (c *canary) burst(n int) {
	for i := 0; i < n; i++ {
		c.pass()
	}
}

// speed is the factor that turns this run's host time into reference-speed
// host time: below 1 when the box ran slower than the reference.
func (c *canary) speed() float64 { return canaryRefMS / median(c.passes) }

// drift is the relative change between the first and the last fifth of the
// run's passes (at least three each).
func (c *canary) drift() (first, last, drift float64) {
	k := max(3, len(c.passes)/5)
	if k > len(c.passes) {
		k = len(c.passes)
	}
	first, last = median(c.passes[:k]), median(c.passes[len(c.passes)-k:])
	drift = (last - first) / first
	if drift < 0 {
		drift = -drift
	}
	return first, last, drift
}

// scaled returns s with every statistic multiplied by f.
func (s stat) scaled(f float64) stat {
	s.Median *= f
	s.Q1 *= f
	s.Q3 *= f
	s.Min *= f
	s.Max *= f
	return s
}
