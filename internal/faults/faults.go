// Package faults is the deterministic fault-schedule engine of the
// adverse-conditions layer: a serializable Spec describing NIC ARM-core
// crash/slowdown windows, NIC↔host fabric loss and latency-spike bursts,
// and host worker stalls, compiled into a Schedule that systems consult
// while they run.
//
// The paper's argument (§5.1) is that a NIC-resident scheduler lives or
// dies by its behaviour under adverse conditions — wimpy ARM cores, a
// 2.56 µs fabric, no interrupt path — and related systems (SuperNIC,
// Wave) treat NIC-core failure and saturation as first-class concerns.
// This package supplies the adversity: every fault is a deterministic
// function of (Spec, seed), scheduled on the simulation clock, so a
// faulted run is exactly as reproducible as a healthy one.
//
// Determinism contract:
//   - The Schedule owns its own random stream, derived from the scenario
//     seed; it never touches the global rand or the wall clock.
//   - Stochastic windows (loss/delay bursts) are materialized once, at
//     Schedule construction, in a fixed draw order.
//   - Per-message loss draws happen in simulation-event order, which the
//     engine already fixes.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Duration is a time.Duration that serializes as a human-readable string
// ("500µs") in scenario files; plain nanosecond numbers are also accepted
// on decode. scenario.Duration is an alias of it (the scenario package
// embeds this package's Spec, so the type lives here).
type Duration time.Duration

// D converts back to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// Window is one half-open fault interval [Start, End) on the simulation
// clock.
type Window struct {
	Start Duration `json:"start"`
	End   Duration `json:"end"`
}

// Bursts generates stochastic fault windows from the schedule's seeded
// stream: N windows with uniform starts in [0, Horizon) and exponential
// lengths of mean MeanLen. Burst generation is part of the Schedule's
// identity — same spec and seed, same windows.
type Bursts struct {
	N       int      `json:"n"`
	Horizon Duration `json:"horizon"`
	MeanLen Duration `json:"mean_len"`
}

// Spec is the serializable fault schedule of one scenario. The zero
// value (and a nil *Spec) means a healthy system; every field is
// optional and omitted when unset so healthy specs encode — and
// fingerprint — exactly as they did before this block existed.
type Spec struct {
	// NICCrash lists windows during which every NIC ARM core (networker,
	// queue manager, TX, RX) is dead: items queued at those stages make
	// no progress until the window closes.
	NICCrash []Window `json:"nic_crash,omitempty"`
	// NICSlow lists windows during which the ARM cores run degraded,
	// processing work at NICSlowFactor of their healthy rate (0.25 means
	// 4× slower). Crash windows override overlapping slow windows.
	NICSlow       []Window `json:"nic_slow,omitempty"`
	NICSlowFactor float64  `json:"nic_slow_factor,omitempty"`
	// WorkerStall lists windows during which the stalled host workers
	// make no execution progress (e.g. an antagonist pinning the core).
	// StallWorkers selects the affected worker ids; empty means all.
	WorkerStall  []Window `json:"worker_stall,omitempty"`
	StallWorkers []int    `json:"stall_workers,omitempty"`
	// LinkLoss drops each NIC↔host fabric message with probability
	// LossRate while inside a loss window; LossBursts adds generated
	// windows to the explicit list.
	LinkLoss   []Window `json:"link_loss,omitempty"`
	LossRate   float64  `json:"loss_rate,omitempty"`
	LossBursts *Bursts  `json:"loss_bursts,omitempty"`
	// LinkDelay adds DelayExtra latency to every NIC↔host fabric message
	// delivered inside a delay window; DelayBursts adds generated
	// windows.
	LinkDelay   []Window `json:"link_delay,omitempty"`
	DelayExtra  Duration `json:"delay_extra,omitempty"`
	DelayBursts *Bursts  `json:"delay_bursts,omitempty"`
	// Timeout arms a per-dispatch timer at the NIC: a dispatched request
	// whose completion (or preemption) notification has not arrived
	// within the timeout is declared lost, its credit reclaimed, and the
	// request retried — Retries times, with the timeout multiplied by
	// Backoff on each attempt (0 means 2). Zero disables the machinery.
	Timeout Duration `json:"timeout,omitempty"`
	Retries int      `json:"retries,omitempty"`
	Backoff float64  `json:"backoff,omitempty"`
	// Degrade enables graceful degradation: while the NIC ARM cores are
	// crashed, arrivals bypass the dead dispatcher pipeline and are
	// hash-steered (RSS-style) straight to worker VF rings, trading
	// informed scheduling for continued goodput.
	Degrade bool `json:"degrade,omitempty"`
}

// Empty reports whether the spec describes a healthy system.
func (s *Spec) Empty() bool {
	return s == nil || (len(s.NICCrash) == 0 && len(s.NICSlow) == 0 &&
		len(s.WorkerStall) == 0 && len(s.LinkLoss) == 0 && s.LossBursts == nil &&
		len(s.LinkDelay) == 0 && s.DelayBursts == nil && s.Timeout == 0 && !s.Degrade)
}

// Encode renders the spec in the canonical form: compact JSON. The
// scenario layer embeds Spec, so checked-in files take the scenario
// package's two-space indentation; Encode exists for round-trip tests
// and the fuzz harness.
func (s Spec) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// Decode parses a fault schedule, rejecting unknown fields so a typo'd
// window list cannot silently describe a healthy system.
func Decode(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("faults: decode spec: %w", err)
	}
	return s, nil
}

// backoff returns the effective retry backoff multiplier.
func (s Spec) backoff() float64 {
	if s.Backoff <= 0 {
		return 2
	}
	return s.Backoff
}

func validateWindows(kind string, ws []Window) error {
	for _, w := range ws {
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("faults: bad %s window [%v, %v)", kind, w.Start.D(), w.End.D())
		}
	}
	return nil
}

func validateBursts(kind string, b *Bursts) error {
	if b == nil {
		return nil
	}
	if b.N <= 0 || b.Horizon <= 0 || b.MeanLen <= 0 {
		return fmt.Errorf("faults: %s bursts need n > 0, horizon > 0, mean_len > 0 (got n=%d horizon=%v mean_len=%v)",
			kind, b.N, b.Horizon.D(), b.MeanLen.D())
	}
	return nil
}

// Validate checks the schedule's internal coherence. It does not need a
// system: per-system constraints (worker ids in range, degradation
// support) are enforced where the schedule is wired in.
func (s Spec) Validate() error {
	for _, v := range []struct {
		kind string
		ws   []Window
	}{
		{"nic_crash", s.NICCrash}, {"nic_slow", s.NICSlow},
		{"worker_stall", s.WorkerStall}, {"link_loss", s.LinkLoss},
		{"link_delay", s.LinkDelay},
	} {
		if err := validateWindows(v.kind, v.ws); err != nil {
			return err
		}
	}
	if len(s.NICSlow) > 0 && (s.NICSlowFactor <= 0 || s.NICSlowFactor >= 1) {
		return fmt.Errorf("faults: nic_slow needs nic_slow_factor in (0, 1), got %g", s.NICSlowFactor)
	}
	if len(s.NICSlow) == 0 && s.NICSlowFactor != 0 { //lint:allow floateq exact zero means "field unset", not a computed value
		return fmt.Errorf("faults: nic_slow_factor set without nic_slow windows")
	}
	if len(s.StallWorkers) > 0 && len(s.WorkerStall) == 0 {
		return fmt.Errorf("faults: stall_workers set without worker_stall windows")
	}
	for _, w := range s.StallWorkers {
		if w < 0 {
			return fmt.Errorf("faults: negative stall worker id %d", w)
		}
	}
	hasLossWins := len(s.LinkLoss) > 0 || s.LossBursts != nil
	if hasLossWins && (s.LossRate <= 0 || s.LossRate > 1) {
		return fmt.Errorf("faults: link loss needs loss_rate in (0, 1], got %g", s.LossRate)
	}
	if !hasLossWins && s.LossRate != 0 { //lint:allow floateq exact zero means "field unset", not a computed value
		return fmt.Errorf("faults: loss_rate set without link_loss windows or loss_bursts")
	}
	hasDelayWins := len(s.LinkDelay) > 0 || s.DelayBursts != nil
	if hasDelayWins && s.DelayExtra <= 0 {
		return fmt.Errorf("faults: link delay needs delay_extra > 0, got %v", s.DelayExtra.D())
	}
	if !hasDelayWins && s.DelayExtra != 0 {
		return fmt.Errorf("faults: delay_extra set without link_delay windows or delay_bursts")
	}
	if err := validateBursts("loss", s.LossBursts); err != nil {
		return err
	}
	if err := validateBursts("delay", s.DelayBursts); err != nil {
		return err
	}
	if s.Timeout < 0 {
		return fmt.Errorf("faults: negative timeout %v", s.Timeout.D())
	}
	if s.Retries < 0 {
		return fmt.Errorf("faults: negative retries %d", s.Retries)
	}
	if s.Timeout == 0 && s.Retries > 0 {
		return fmt.Errorf("faults: retries need a timeout")
	}
	if s.Backoff != 0 && s.Backoff < 1 { //lint:allow floateq exact zero means "field unset", not a computed value
		return fmt.Errorf("faults: backoff must be >= 1, got %g", s.Backoff)
	}
	return nil
}
