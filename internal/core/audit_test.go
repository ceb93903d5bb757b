package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/faults"
	"mindgap/internal/loadgen"
	"mindgap/internal/probe"
	"mindgap/internal/runner"
	"mindgap/internal/sim"
	"mindgap/internal/systems/systest"
	"mindgap/internal/task"
	"mindgap/internal/trace"
)

// seeded is an Offload whose Inject may lose one request on its way in.
type seeded struct {
	*Offload
	lose uint64 // the request ID Inject swallows without a probe.Drop
}

func (s seeded) Inject(r *task.Request) {
	if r.ID != s.lose {
		s.Offload.Inject(r)
	}
}

// TestAuditSeededViolations seeds one bug shape into an otherwise healthy
// run per case, and checks that the conservation audit systest.Run shares
// with every experiment point names the equation it breaks, and the runner
// the point: a lost response, a loss nothing counted (the shape of a wire
// fault that skipped probe.Drop), an Abandon that skips Logic.CompleteTo (a
// credit leak), dedupe stubs for requests never retried, and one stray
// engine event per completion.
func TestAuditSeededViolations(t *testing.T) {
	healthy := defaultCfg(4, 2, 10*time.Microsecond)
	recovering := healthy
	recovering.FaultSpec = &faults.Spec{Timeout: faults.Duration(time.Millisecond)}
	type build = func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) seeded
	// at runs seed at 200µs into the run of a recovering Offload.
	at := func(seed func(eng *sim.Engine, s *Offload)) build {
		return func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) seeded {
			s := NewOffload(eng, recovering, pr, done)
			eng.At(sim.Time(200*time.Microsecond), func() { seed(eng, s) })
			return seeded{Offload: s}
		}
	}
	cases := []struct {
		name, eq string
		build    build
	}{
		{"clean", "", func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) seeded {
			return seeded{Offload: NewOffload(eng, healthy, pr, done)}
		}},
		{"swallowed response", "lifecycle", func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) seeded {
			return seeded{Offload: NewOffload(eng, healthy, pr, func(r *task.Request) {
				if r.ID != 100 {
					done(r)
				}
			})}
		}},
		{"uncounted loss", "lifecycle", func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) seeded {
			return seeded{Offload: NewOffload(eng, healthy, pr, done), lose: 100}
		}},
		{"abandon without CompleteTo", "credits", at(func(eng *sim.Engine, s *Offload) {
			var id uint64
			for k, a := range s.rec.recs {
				if a.worker >= 0 && (id == 0 || k < id) {
					id = k
				}
			}
			a := s.rec.recs[id]
			v, slot := s.rec.Expired(id, a.token, int(a.worker))
			if v != Abandon {
				panic(fmt.Sprintf("seed: expiry of request %d answered %d, want Abandon", id, v))
			}
			s.flights[slot].timer.Stop()
			s.pr.Drop(eng.Now(), id, -1, trace.DropTimeout)
		})},
		{"stubs never retried", "recovery", at(func(_ *sim.Engine, s *Offload) {
			for id := uint64(1); id <= 20; id++ {
				s.rec.recs[id] = attempt[*task.Request]{worker: closed, responded: true}
			}
		})},
		{"event per completion", "engine", func(eng *sim.Engine, pr *probe.Probe, done func(*task.Request)) seeded {
			return seeded{Offload: NewOffload(eng, healthy, pr, func(r *task.Request) {
				eng.AfterE(time.Hour, func(any, any, uint64) {}, nil, nil, 0)
				done(r)
			})}
		}},
	}
	load := loadgen.Config{RPS: 300_000, Service: dist.Fixed{D: 5 * time.Microsecond}, Seed: 3}
	for _, c := range cases {
		key := "seed|" + c.name
		point := runner.Point[int]{Key: key, Run: func() int {
			systest.Run(t, c.build, load, 2000)
			return 0
		}}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				t.Logf("%s: %s", c.name, msg)
				if c.eq == "" && msg != "<nil>" {
					t.Errorf("%s: %s", c.name, msg)
				}
				if c.eq != "" && !(strings.Contains(msg, c.eq+" broken") && strings.Contains(msg, key)) {
					t.Errorf("%s: want the audit to name %q and point %q, got: %s", c.name, c.eq, key, msg)
				}
			}()
			runner.RunOne(context.Background(), &runner.Runner{Parallelism: 1}, "audit",
				runner.Series[int]{Label: c.name, Points: []runner.Point[int]{point}})
		}()
	}
}
