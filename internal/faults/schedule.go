package faults

import (
	"math/rand/v2"
	"sort"
	"time"

	"mindgap/internal/sim"
)

// StretchFunc converts an amount of work beginning at a simulation
// instant into the wall-clock duration it takes under the active fault
// timeline. The result is always >= work.
type StretchFunc func(at sim.Time, work time.Duration) time.Duration

// Schedule is one run's compiled fault schedule: the Spec's windows
// resolved into timelines, burst windows materialized from the seeded
// stream, and the per-message loss stream ready to draw. Build one
// Schedule per system instance — it accumulates counters and consumes
// its random stream as the run progresses, so instances must never be
// shared across engines.
type Schedule struct {
	spec Spec
	rng  *rand.Rand

	nic     timeline // crash (factor 0) overlaid on slowdown spans
	crash   timeline // crash spans alone, for NICDown / degradation
	workers timeline // stall spans (factor 0)
	stall   map[int]bool
	loss    timeline // explicit + burst loss windows
	delay   timeline // explicit + burst delay windows

	lossDrops uint64
	delayHits uint64
}

// New compiles a validated spec into a run-ready schedule. The seed is
// the scenario seed; the schedule derives its own stream from it so
// fault randomness never perturbs the load generator's arrivals. New
// panics on an invalid spec — callers surface errors via Spec.Validate.
func New(sp Spec, seed uint64) *Schedule {
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	s := &Schedule{
		spec: sp,
		rng:  rand.New(rand.NewPCG(seed, seed^0x6661756c7473)), // "faults"
	}
	s.crash = mergeWindows(sp.NICCrash, 0)
	s.nic = overlay(mergeWindows(sp.NICSlow, sp.NICSlowFactor), s.crash)
	s.workers = mergeWindows(sp.WorkerStall, 0)
	if len(sp.StallWorkers) > 0 {
		s.stall = make(map[int]bool, len(sp.StallWorkers))
		for _, w := range sp.StallWorkers {
			s.stall[w] = true
		}
	}
	// Burst materialization order is fixed (loss, then delay): it is part
	// of the schedule's deterministic identity.
	s.loss = mergeWindows(append(append([]Window(nil), sp.LinkLoss...), s.genBursts(sp.LossBursts)...), 0)
	s.delay = mergeWindows(append(append([]Window(nil), sp.LinkDelay...), s.genBursts(sp.DelayBursts)...), 0)
	return s
}

// genBursts draws b.N windows from the schedule's stream: uniform starts
// in [0, Horizon), exponential lengths of mean MeanLen, sorted by start
// so the resulting timeline is independent of draw order.
func (s *Schedule) genBursts(b *Bursts) []Window {
	if b == nil {
		return nil
	}
	ws := make([]Window, 0, b.N)
	for i := 0; i < b.N; i++ {
		start := Duration(s.rng.Float64() * float64(b.Horizon))
		length := Duration(s.rng.ExpFloat64() * float64(b.MeanLen))
		if length <= 0 {
			length = 1
		}
		ws = append(ws, Window{Start: start, End: start + length})
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	return ws
}

// Spec returns the schedule's source spec.
func (s *Schedule) Spec() Spec { return s.spec }

// NICStretch returns the ARM-core stretch function, or nil when the spec
// has no NIC crash or slowdown windows — a nil hook is the zero-overhead
// healthy path.
func (s *Schedule) NICStretch() StretchFunc {
	if len(s.nic) == 0 {
		return nil
	}
	return s.nic.stretch
}

// WorkerStretch returns the stall stretch function for one worker, or
// nil when that worker never stalls.
func (s *Schedule) WorkerStretch(id int) StretchFunc {
	if len(s.workers) == 0 {
		return nil
	}
	if s.stall != nil && !s.stall[id] {
		return nil
	}
	return s.workers.stretch
}

// NICDown reports whether every NIC ARM core is inside a crash window.
func (s *Schedule) NICDown(now sim.Time) bool { return s.crash.contains(now) }

// CrashWindows returns the resolved crash windows — the bench recovery
// table uses them to place its phase boundaries.
func (s *Schedule) CrashWindows() []Window {
	ws := make([]Window, 0, len(s.crash))
	for _, sp := range s.crash {
		ws = append(ws, Window{Start: Duration(sp.start), End: Duration(sp.end)})
	}
	return ws
}

// HasLinkFaults reports whether any loss or delay window exists; when
// false the link hook is left nil and Send runs its pre-fault path.
func (s *Schedule) HasLinkFaults() bool { return len(s.loss) > 0 || len(s.delay) > 0 }

// LinkFault is consulted once per NIC↔host fabric message at send time.
// It reports whether the message is lost and any extra propagation
// latency. Loss draws happen only inside loss windows, in simulation
// event order, so the stream is deterministic.
func (s *Schedule) LinkFault(now sim.Time) (drop bool, extra time.Duration) {
	if s.loss.contains(now) && s.rng.Float64() < s.spec.LossRate {
		s.lossDrops++
		return true, 0
	}
	if s.delay.contains(now) {
		s.delayHits++
		extra = s.spec.DelayExtra.D()
	}
	return false, extra
}

// Timeout returns the base per-dispatch timeout (zero disables it).
func (s *Schedule) Timeout() time.Duration { return s.spec.Timeout.D() }

// Retries returns the retry budget per request.
func (s *Schedule) Retries() int { return s.spec.Retries }

// AttemptTimeout returns the timeout armed for the given dispatch
// attempt (0-based): Timeout · Backoff^attempt.
func (s *Schedule) AttemptTimeout(attempt int) time.Duration {
	d := float64(s.spec.Timeout)
	b := s.spec.backoff()
	for i := 0; i < attempt; i++ {
		d *= b
	}
	return time.Duration(d)
}

// Degrade reports whether arrivals fall back to hash steering while the
// NIC ARM cores are crashed.
func (s *Schedule) Degrade() bool { return s.spec.Degrade }

// LossDrops returns how many fabric messages the loss stream has eaten.
func (s *Schedule) LossDrops() uint64 { return s.lossDrops }

// DelayHits returns how many fabric messages took the delay penalty.
func (s *Schedule) DelayHits() uint64 { return s.delayHits }
