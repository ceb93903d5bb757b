package core

import (
	"slices"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/faults"
	"mindgap/internal/loadgen"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/systems/systest"
	"mindgap/internal/task"
)

// notified is the part of a worker notification the load rule decides.
type notified struct {
	kind qEventKind
	load int64
}

// notifications records every worker notification the queue manager is
// handed, in order, by standing a recording consumer in for the RX core's.
func notifications(s *Offload) *[]notified {
	var seen []notified
	s.armFn.DrainTo(s.rxq, func(recv, obj any, arg uint64) {
		qe := obj.(*qEvent)
		seen = append(seen, notified{qe.kind, qe.load})
		shmNotif(recv, obj, arg)
	}, s)
	return &seen
}

func feedbackCfg(k int, slice time.Duration) OffloadConfig {
	cfg := defaultCfg(1, k, slice)
	cfg.Policy = InformedLeastLoaded
	return cfg
}

// TestLoadRidesOnNotifications: a FINISH or PREEMPTED carries the worker's
// backlog as it stands when the frame is built, and Logic holds that value
// once the queue manager has served it; a start sends a load frame of its
// own only when the backlog changed since the last notification — a start
// from idle, not a pickup straight out of a FINISH or PREEMPTED.
func TestLoadRidesOnNotifications(t *testing.T) {
	const us = time.Microsecond
	at := func(eng *sim.Engine, when sim.Time, req *task.Request, s *Offload) {
		eng.At(when, func() { s.Inject(req) })
	}
	t.Run("finish", func(t *testing.T) {
		eng := sim.New()
		s := NewOffload(eng, feedbackCfg(2, 0), nil, func(*task.Request) {})
		seen := notifications(s)
		// r2 lands while r1 runs and starts straight out of r1's FINISH; r3
		// lands on an idle core.
		at(eng, 0, task.New(1, 0, 20*us), s)
		at(eng, 5000, task.New(2, 5000, 20*us), s)
		at(eng, 100_000, task.New(3, 100_000, 20*us), s)
		eng.RunUntil(40_000) // r1's FINISH served, r2 running
		if ld, _, ok := s.lgc.EstimateFor(eng.Now(), 0); !ok || ld != int64(20*us) {
			t.Fatalf("after r1's FINISH Logic holds %d (reported %v), want r2's %d", ld, ok, 20*us)
		}
		eng.Run()
		want := []notified{
			{evLoad, int64(20 * us)},   // r1 starts from idle
			{evFinish, int64(20 * us)}, // r1's, r2 waiting in the ring
			{evFinish, 0},              // r2's: r1's FINISH told its start
			{evLoad, int64(20 * us)},   // r3 starts from idle
			{evFinish, 0},
		}
		if !slices.Equal(*seen, want) {
			t.Fatalf("notifications %v, want %v", *seen, want)
		}
		if ld, _, _ := s.lgc.EstimateFor(eng.Now(), 0); ld != 0 {
			t.Fatalf("Logic holds %d after the last FINISH, want 0", ld)
		}
	})
	t.Run("preempted", func(t *testing.T) {
		eng := sim.New()
		s := NewOffload(eng, feedbackCfg(2, 10*us), nil, func(*task.Request) {})
		seen := notifications(s)
		// r1 is preempted with r2 in the ring; r1 comes back while r2 runs.
		at(eng, 0, task.New(1, 0, 15*us), s)
		at(eng, 3000, task.New(2, 3000, 9*us), s)
		eng.Run()
		want := []notified{
			{evLoad, int64(15 * us)},
			{evPreempted, int64(9 * us)}, // r1 off the core, r2 waiting
			{evFinish, int64(5 * us)},    // r1's last 5 µs back in the ring
			{evFinish, 0},
		}
		if !slices.Equal(*seen, want) {
			t.Fatalf("notifications %v, want %v", *seen, want)
		}
	})
}

// TestLoadAppliedOnStaleVerdict: Recovery judging a FINISH stale does not
// stop the load it carries from reaching Logic.
func TestLoadAppliedOnStaleVerdict(t *testing.T) {
	cfg := feedbackCfg(1, 0)
	cfg.FaultSpec = &faults.Spec{Timeout: faults.Duration(time.Millisecond)}
	s := NewOffload(sim.New(), cfg, nil, func(*task.Request) {})
	s.handleQueueEvent(qEvent{kind: evFinish, worker: 0, req: task.New(9, 0, time.Microsecond), id: 9, load: 4242})
	if ld, _, ok := s.lgc.EstimateFor(0, 0); !ok || ld != 4242 {
		t.Fatalf("Logic holds %d (reported %v) after a stale FINISH carrying 4242", ld, ok)
	}
	if s.lgc.outstanding[0] != 0 {
		t.Fatalf("a stale FINISH released a credit: outstanding %d", s.lgc.outstanding[0])
	}
}

// TestSeparateLoadFramesPerRequest: at table-attribution's offload point
// (4 workers, k = 4, 10 µs slice, informed with feedback, bimodal
// 0.995:5µs:100µs at 450 krps) most starts follow a FINISH or PREEMPTED
// that already told the NIC, so separate load frames stay well under one
// per request (over two when every start, completion and preemption sent
// its own).
func TestSeparateLoadFramesPerRequest(t *testing.T) {
	cfg := feedbackCfg(4, 10*time.Microsecond)
	cfg.Workers = 4
	svc := dist.Bimodal{P1: 0.995, D1: 5 * time.Microsecond, D2: 100 * time.Microsecond}
	var seen *[]notified
	const measure = 20_000
	systest.Run(t, func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) *Offload {
		s := NewOffload(eng, cfg, pr, done)
		seen = notifications(s)
		return s
	}, loadgen.Config{RPS: 450_000, Service: svc, Seed: 42}, measure)
	loads := 0
	for _, n := range *seen {
		if n.kind == evLoad {
			loads++
		}
	}
	perReq := float64(loads) / measure
	t.Logf("%.3f separate load frames per request", perReq)
	if perReq > 0.6 {
		t.Fatalf("%.2f separate load frames per request, want ≤ 0.6", perReq)
	}
}
