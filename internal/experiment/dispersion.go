package experiment

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// DispersionRow is one row of the X7 extension experiment: the same mean
// service time and utilization, with increasing service-time dispersion.
// The theory the paper leans on (§2.2, Wierman & Zwart) is about *short
// requests*: "without preemption, short requests will get stuck behind
// long requests and the tail latency of the short requests will explode".
// So the metric is the p99 latency of requests whose service time is at
// most the distribution mean — preemption deliberately trades long-request
// latency away, which overall p99 would (correctly but uninterestingly)
// penalize.
type DispersionRow struct {
	// Workload names the distribution.
	Workload string
	// CV2 is the empirical squared coefficient of variation.
	CV2 float64
	// PreemptShortP99 and NoPreemptShortP99 are the short-request tails
	// with a 10µs slice and with preemption disabled.
	PreemptShortP99, NoPreemptShortP99 time.Duration
	// Win is NoPreemptShortP99 / PreemptShortP99.
	Win float64
}

// ShortTailMeasure is the runner payload of one X7 simulation: the p99
// latency of requests whose service time is at most the workload mean.
type ShortTailMeasure struct {
	ShortP99 time.Duration
}

// ShortTail is the X7 row kind. Every series of the table-dispersion
// preset — distributions of increasing dispersion with a 10µs mean at
// ρ≈0.7 on four workers, on Shinjuku-Offload — is measured twice: with
// the preset's slice, then with preemption off (slice 0). Each
// (workload, preemption) cell is an independent point, so the whole
// table fans out in parallel.
var ShortTail = Kind[ShortTailMeasure]{
	run: func(cfg PointConfig, _ scenario.Spec, _ float64) ShortTailMeasure {
		mean := cfg.Service.Mean()
		var short stats.Histogram
		drive(cfg, func(r *task.Request, latency time.Duration) {
			if r.Service <= mean {
				short.Record(latency)
			}
		})
		return ShortTailMeasure{ShortP99: short.P99()}
	},
	variants: func(sp scenario.Spec) []scenario.Spec {
		return []scenario.Spec{sp, sp.WithSlice(0)}
	},
}

// DispersionRows reduces the ShortTail rows of the table-dispersion
// preset to X7, one row per workload series that completed.
func DispersionRows(p scenario.Preset, res []runner.SeriesResult[ShortTailMeasure]) []DispersionRow {
	var rows []DispersionRow
	for i, sr := range res {
		if len(sr.Results) < 2 {
			break // cancelled mid-sweep: keep complete rows only
		}
		// Run compiled the series, so its workload parses.
		w, _ := dist.Parse(p.SpecFor(i).Workload)
		pre, nopre := sr.Results[0].ShortP99, sr.Results[1].ShortP99
		row := DispersionRow{
			Workload:          sr.Label,
			CV2:               empiricalCV2(w),
			PreemptShortP99:   pre,
			NoPreemptShortP99: nopre,
		}
		if pre > 0 {
			row.Win = float64(nopre) / float64(pre)
		}
		rows = append(rows, row)
	}
	return rows
}

// printDispersion prints X7.
func printDispersion(w io.Writer, p scenario.Preset, res []runner.SeriesResult[ShortTailMeasure]) {
	fmt.Fprintf(w, "%-36s %8s %16s %16s %8s\n", "workload", "cv²", "short p99 (pre)", "short p99 (rtc)", "win")
	for _, r := range DispersionRows(p, res) {
		fmt.Fprintf(w, "%-36s %8.2f %16v %16v %7.1fx\n",
			r.Workload, r.CV2, r.PreemptShortP99, r.NoPreemptShortP99, r.Win)
	}
	fmt.Fprintln(w)
}

// empiricalCV2 estimates the squared coefficient of variation by sampling.
func empiricalCV2(d dist.Distribution) float64 {
	r := rand.New(rand.NewPCG(5, 55))
	const n = 100_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(d.Sample(r))
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	varr := sumSq/n - mean*mean
	// Samples are non-negative, so mean <= 0 means every draw was zero
	// and CV² is undefined; <= sidesteps an exact float comparison.
	if mean <= 0 {
		return 0
	}
	cv2 := varr / (mean * mean)
	if math.IsNaN(cv2) || cv2 < 0 {
		return 0
	}
	return cv2
}
