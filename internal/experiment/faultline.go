package experiment

import (
	"fmt"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/loadgen"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
	"mindgap/scenarios"
)

// This file renders the fault-recovery timeline: one faulted run chopped
// into phases around the injected NIC crash windows, showing goodput and
// tail latency degrading while the ARM cores are down (degraded
// hash-steering keeps a reduced service running, §2.1) and recovering
// once the crash window closes.

// FaultPhase is one row of the recovery table: completions observed in
// [Start, End) of a faulted run.
type FaultPhase struct {
	// Phase names the interval: healthy, crash, recovery, or recovered
	// (crash presets), or faulted for presets without crash windows.
	Phase      string
	Start, End time.Duration
	// Completed counts requests whose response landed inside the phase;
	// GoodputRPS is that count over the phase length.
	Completed  int64
	GoodputRPS float64
	// P50/P99/Max summarize the latency of those completions.
	P50, P99, Max time.Duration
}

// FaultTimelineResult is the rendered recovery table for one preset's
// faulted series, with the fault engine's own accounting alongside.
type FaultTimelineResult struct {
	Preset, Label string
	OfferedRPS    float64
	Phases        []FaultPhase
	// Retries/TimeoutDrops/Degraded come from the offload system's
	// timeout-retry machinery; LossDrops/DelayHits from the fabric fault
	// hook; RecorderDrops is every drop the stats recorder saw (ring
	// overflows, frame losses, and retry-budget abandonments combined).
	Retries, TimeoutDrops, Degraded uint64
	LossDrops, DelayHits            uint64
	RecorderDrops                   int64
}

// faultObs is one completion: when it finished and how long it took.
type faultObs struct {
	at  sim.Time
	lat time.Duration
}

// FaultTimeline runs the first faulted series of the named preset at the
// top of its load grid — where degraded hash steering visibly hurts the
// tail, which is the point of the table — and buckets completions into
// phases derived from the compiled fault schedule's crash windows. The
// run is a single deterministic simulation (no sweep): same preset, same
// bytes out.
func FaultTimeline(presetID string, q Quality) (FaultTimelineResult, error) {
	p, err := scenarios.Load(presetID)
	if err != nil {
		return FaultTimelineResult{}, err
	}
	idx := -1
	for i := range p.Series {
		if p.SpecFor(i).Faults != nil {
			idx = i
			break
		}
	}
	if idx < 0 {
		return FaultTimelineResult{}, fmt.Errorf("experiment: preset %q has no faulted series", presetID)
	}
	sp := p.SpecFor(idx)
	cfg, err := PointConfigFor(sp, q)
	if err != nil {
		return FaultTimelineResult{}, err
	}
	loads, err := SpecLoads(sp)
	if err != nil {
		return FaultTimelineResult{}, err
	}
	if len(loads) == 0 {
		return FaultTimelineResult{}, fmt.Errorf("experiment: preset %q declares no load", presetID)
	}
	rps := loads[len(loads)-1]

	eng := sim.New()
	rec := &stats.Recorder{}
	rec.Arm(0)
	var obs []faultObs
	done := func(r *task.Request) {
		lat := r.Latency(eng.Now())
		rec.RecordLatency(lat)
		obs = append(obs, faultObs{at: eng.Now(), lat: lat})
	}
	sys := cfg.Factory(eng, rec, done)
	sys.ArmWorkerTrackers(0)

	off, ok := sys.(*core.Offload)
	if !ok || off.FaultSchedule() == nil {
		return FaultTimelineResult{}, fmt.Errorf("experiment: preset %q did not build a faulted offload system", presetID)
	}
	sched := off.FaultSchedule()

	// Phase boundaries: lead-in, the first crash window, an equal-length
	// recovery interval, then a recovered tail as long as the lead-in.
	// Presets without crash windows get one whole-run "faulted" phase
	// sized to the quality's measurement count.
	type bound struct {
		name       string
		start, end time.Duration
	}
	var bounds []bound
	var horizon time.Duration
	if ws := sched.CrashWindows(); len(ws) > 0 {
		start, end := ws[0].Start.D(), ws[0].End.D()
		crashLen := end - start
		horizon = end + crashLen + start
		bounds = []bound{
			{"healthy", 0, start},
			{"crash", start, end},
			{"recovery", end, end + crashLen},
			{"recovered", end + crashLen, horizon},
		}
	} else {
		horizon = time.Duration(float64(q.Measure) / rps * float64(time.Second))
		bounds = []bound{{"faulted", 0, horizon}}
	}

	gen := loadgen.New(eng, loadgen.Config{
		RPS:     rps,
		Service: cfg.Service,
		Keys:    cfg.Keys,
		Seed:    cfg.Seed,
	}, sys.Inject)
	gen.Start()
	eng.At(sim.Time(horizon), func() {
		rec.Stop(eng.Now())
		eng.Halt()
	})
	eng.Run()

	res := FaultTimelineResult{
		Preset:        presetID,
		Label:         p.Series[idx].Label,
		OfferedRPS:    rps,
		Retries:       off.Retries(),
		TimeoutDrops:  off.TimeoutDrops(),
		Degraded:      off.DegradedSteered(),
		LossDrops:     sched.LossDrops(),
		DelayHits:     sched.DelayHits(),
		RecorderDrops: rec.Dropped(),
	}
	for _, b := range bounds {
		var h stats.Histogram
		for _, o := range obs {
			if o.at >= sim.Time(b.start) && o.at < sim.Time(b.end) {
				h.Record(o.lat)
			}
		}
		res.Phases = append(res.Phases, FaultPhase{
			Phase:      b.name,
			Start:      b.start,
			End:        b.end,
			Completed:  h.Count(),
			GoodputRPS: float64(h.Count()) / (b.end - b.start).Seconds(),
			P50:        h.P50(),
			P99:        h.P99(),
			Max:        h.Max(),
		})
	}
	return res, nil
}

// FaultPresetIDs lists the checked-in fault presets the faults table
// renders, in output order.
func FaultPresetIDs() []string {
	return []string{"figure-faults-niccrash", "figure-faults-lossyfabric"}
}
