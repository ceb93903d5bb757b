package main

import (
	"fmt"
	"runtime"
	"time"
)

const (
	// gridCanaryPasses is how many canary passes go around each CLI rep,
	// which are too few to take one pass each.
	gridCanaryPasses = 5
	// setupRounds is how many times a run repeats its whole set-up (preset
	// load, validate, factory build, warm-up reps) to report a median.
	setupRounds = 3
	// minReps keeps the quartiles meaningful when -seconds is small.
	minReps = 5
)

// runResult is everything one run of one workload reports. Timed runs fill
// Metrics (the end-to-end metrics); traced runs fill Ledger.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Ops       int      `json:"ops"`
	OpsFailed int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	SimDigest string   `json:"sim_digest"`
	// Noisy is set when the canary drifted by more than canaryLimit across
	// the run: the numbers then measure the box.
	Noisy bool `json:"noisy"`
	// CanaryMS is the canary's first and last fifth (medians); Speed is
	// canaryRefMS over the median pass. Metrics are Raw scaled by Speed.
	CanaryMS     [2]float64        `json:"canary_ms"`
	Speed        float64           `json:"speed"`
	Metrics      map[string]stat   `json:"metrics,omitempty"`
	Raw          map[string]stat   `json:"raw,omitempty"`
	Ledger       map[string]ledger `json:"ledger,omitempty"`
	SpanFile     string            `json:"span_file,omitempty"`
	ProfileNotes []string          `json:"notes,omitempty"`
}

func (r *runResult) fail(format string, args ...any) {
	r.OpsFailed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// rep is one timed repetition of an in-process workload.
type rep struct {
	Wall     time.Duration
	CPU      float64
	Requests int64
	Events   uint64
	HighWat  int
	Digest   string
	Runs     []pointRun
}

// runRep simulates every sub-point once, in order, single-threaded.
func runRep(pts []*point, force *observers) rep {
	var r rep
	digests := make([]string, len(pts))
	cpu0 := cpuSeconds()
	start := time.Now()
	r.Runs = make([]pointRun, len(pts))
	for i, p := range pts {
		obs := p.Observers
		if force != nil {
			obs = *force
		}
		r.Runs[i] = p.run(obs)
	}
	r.Wall = time.Since(start)
	r.CPU = cpuSeconds() - cpu0
	for i, pr := range r.Runs {
		r.Requests += pr.Requests
		r.Events += pr.Events
		if pr.HighWat > r.HighWat {
			r.HighWat = pr.HighWat
		}
		digests[i] = pr.Digest
	}
	r.Digest = combineDigests(digests)
	return r
}

// account folds a rep into the run's op counts and digest check: every
// point is one op, and a rep whose digest differs from the first timed
// rep's fails all of its points.
func (r *runResult) account(rp rep) {
	if r.SimDigest == "" {
		r.SimDigest = rp.Digest
	}
	if rp.Digest != r.SimDigest {
		r.Ops += len(rp.Runs)
		r.OpsFailed += len(rp.Runs)
		r.Failures = append(r.Failures, fmt.Sprintf("sim_digest %s differs from the first rep's %s", rp.Digest, r.SimDigest))
		return
	}
	r.countOps(rp)
}

// countOps counts a rep's points as ops and its failed points as failed,
// without touching sim_digest: the ledger's reps of other workloads use it.
func (r *runResult) countOps(rp rep) {
	r.Ops += len(rp.Runs)
	for _, pr := range rp.Runs {
		if pr.Failed != "" {
			r.fail("%s", pr.Failed)
		}
	}
}

// setUp compiles the workload's points and runs its warm-up reps,
// setupRounds times over; it returns the last compilation and the wall
// seconds of each round.
func setUp(w workloadDef, seed uint64) ([]*point, []float64, error) {
	var pts []*point
	var rounds []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		var err error
		if pts, err = compilePoints(w.Points, seed); err != nil {
			return nil, nil, err
		}
		for j := 0; j < warmReps; j++ {
			runRep(pts, nil)
		}
		rounds = append(rounds, time.Since(start).Seconds())
	}
	return pts, rounds, nil
}

// timeInProcess is the untraced run of an in-process workload: reps until
// the measuring window closes, each metric the median over reps.
func timeInProcess(w workloadDef, seed uint64, seconds float64) (*runResult, error) {
	res := &runResult{Workload: w.Name, Seed: seed, Seconds: seconds}
	pts, setups, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var can canary
	var nsPerReq, wall, cpu []float64
	start := time.Now()
	for len(wall) < minReps || time.Since(start).Seconds() < seconds {
		can.pass()
		rp := runRep(pts, nil)
		res.account(rp)
		wall = append(wall, rp.Wall.Seconds())
		cpu = append(cpu, rp.CPU)
		nsPerReq = append(nsPerReq, float64(rp.Wall.Nanoseconds())/float64(rp.Requests))
	}
	can.pass()
	res.setMetrics(&can, nsPerReq, wall, cpu, setups)
	return res, nil
}

// noise records the run's canary: the drift flag and the speed factor.
func (r *runResult) noise(c *canary) {
	first, last, drift := c.drift()
	r.CanaryMS = [2]float64{first, last}
	r.Noisy = drift > canaryLimit
	r.Speed = c.speed()
}

// setMetrics summarises the reps' samples: Raw as measured, Metrics scaled
// to the reference speed by the run's canary.
func (r *runResult) setMetrics(c *canary, nsPerReq, wall, cpu, setups []float64) {
	r.noise(c)
	r.Raw = map[string]stat{
		"ns_per_req": summarise("ns", nsPerReq),
		"wall_s":     summarise("s", wall),
		"cpu_s":      summarise("s", cpu),
		"setup_s":    summarise("s", setups),
	}
	r.Metrics = make(map[string]stat, len(r.Raw))
	for _, name := range sortedKeys(r.Raw) {
		r.Metrics[name] = r.Raw[name].scaled(r.Speed)
	}
}

// timeGrid is the untraced run of grid_quick: the built CLI, cold, no
// cache, at -j min(nproc,4). -seed does not apply: the presets pin seeds.
func timeGrid(w workloadDef, bin string, seed uint64, seconds float64) (*runResult, error) {
	res := &runResult{Workload: w.Name, Seed: seed, Seconds: seconds}
	jobs := gridJobs()
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		r := runCLI(bin, smallGridArgs(jobs)...)
		if r.Err != nil {
			return nil, fmt.Errorf("mindgap-bench warm-up: %v\n%s", r.Err, r.Stderr)
		}
		setups = append(setups, r.Wall.Seconds())
	}
	var can canary
	var nsPerReq, wall, cpu []float64
	start := time.Now()
	for res.OpsFailed <= 3 && (len(wall) < 2 || time.Since(start).Seconds() < seconds) {
		can.burst(gridCanaryPasses)
		r := runCLI(bin, gridArgs(jobs)...)
		res.Ops++
		rows := parseGridCSV(r.Stdout)
		digest := hashBytes(r.Stdout)
		if res.SimDigest == "" {
			res.SimDigest = digest
		}
		switch {
		case r.Err != nil:
			res.fail("mindgap-bench: %v", r.Err)
			continue
		case len(rows) == 0 || completedSum(rows) == 0:
			res.fail("mindgap-bench printed no figure rows")
			continue
		case digest != res.SimDigest:
			res.fail("stdout hash %s differs from the first rep's %s", digest, res.SimDigest)
		}
		wall = append(wall, r.Wall.Seconds())
		cpu = append(cpu, r.CPU)
		nsPerReq = append(nsPerReq, float64(r.Wall.Nanoseconds())/float64(completedSum(rows)))
	}
	can.burst(gridCanaryPasses)
	if len(wall) == 0 {
		res.noise(&can)
		return res, nil
	}
	res.setMetrics(&can, nsPerReq, wall, cpu, setups)
	return res, nil
}
