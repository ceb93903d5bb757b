// Package shinjuku models the vanilla Shinjuku system (Kaffes et al., NSDI
// '19) as described in §2.1 of the paper: a host-resident networking
// subsystem and centralized dispatcher pinned to hyperthreads of one
// physical core, workers on the remaining cores, cache-line shared-memory
// IPC, and dispatcher-driven preemption via low-overhead posted interrupts.
//
// This is the baseline Shinjuku-Offload is compared against in every figure.
// Its two structural costs are exactly the ones the paper calls out:
//
//   - It burns a physical core on networking + dispatch, so at equal
//     hardware it runs one fewer worker than Shinjuku-Offload (Figures 2,
//     4, 5).
//   - The dispatcher handles ~5 M req/s (200 ns/request), far more than
//     the offloaded ARM dispatcher — which is why it wins Figure 6.
package shinjuku

import (
	"time"

	"mindgap/internal/core"
	"mindgap/internal/cores"
	"mindgap/internal/fabric"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// Config describes one vanilla Shinjuku deployment.
type Config struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the number of worker cores (the dispatcher's physical
	// core is additional and implicit).
	Workers int
	// Slice is the preemption quantum; zero disables preemption.
	Slice time.Duration
	// Outstanding is the per-worker credit limit. Vanilla Shinjuku keeps
	// exactly one request per worker (cache-line IPC is fast enough that
	// stashing is unnecessary); values > 1 are allowed for ablations.
	Outstanding int
	// Policy is the worker-selection policy (idle-first FIFO by default).
	Policy core.Policy
	// Sockets models a multi-socket host (§1): the NIC DDIO-places every
	// packet into socket 0's LLC (where the networker runs); workers on
	// other sockets pay P.NUMAPenalty on pickup because the dispatcher
	// picks workers with no knowledge of packet placement. 0 or 1 means a
	// single socket.
	Sockets int
}

// Shinjuku is the simulated vanilla system: the shared host-worker kit fed
// by a host-resident networker and a core.Central dispatcher over
// cache-line channels.
type Shinjuku struct {
	*cores.Host
	eng *sim.Engine
	cfg Config
	pr  *probe.Probe

	// net is the networker thread and the cache-line channel behind it,
	// one FIFO pipe into the dispatcher.
	net        *fabric.Link
	dispatcher *core.Central
}

// New builds the system. done runs at the instant the client receives each
// response; pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *Shinjuku {
	if cfg.Outstanding <= 0 {
		cfg.Outstanding = 1
	}
	p := cfg.P
	s := &Shinjuku{eng: eng, cfg: cfg, pr: pr}
	s.Host = cores.NewHost(eng, cores.HostConfig{
		P: p, Workers: cfg.Workers, Pickup: p.PickupCost(false),
		Slice: cfg.Slice, SelfArm: false, // preemption is dispatcher-posted
	}, pr, s.ingress, done)
	for _, w := range s.Workers {
		if s.socket(w.ID) != 0 {
			// The packet sits in socket 0's LLC; a remote worker fetches it
			// across the interconnect.
			w.Pickup += p.NUMAPenalty
		}
	}
	if cfg.Slice > 0 {
		s.Started = s.armSlice
	}
	s.dispatcher = core.NewCentral(eng, pr, s.Host,
		core.NewLogic(cfg.Workers, cfg.Outstanding, cfg.Policy),
		"host-dispatcher", p.HostDispatchCost, p.HostCompletionCost, p.CacheLine)

	s.net = fabric.NewLink(eng, "host-networker", fabric.LinkConfig{Cost: p.HostNetworkerCost, Latency: p.CacheLine})
	return s
}

// Name implements the experiment System interface.
func (s *Shinjuku) Name() string { return "shinjuku" }

// ingress runs when a request frame reaches the host NIC.
//
//mindgap:noalloc
func (s *Shinjuku) ingress(req *task.Request) {
	s.pr.Ingress(s.eng.Now(), req.ID)
	s.net.SendT(0, shmArrive, s, req, 0)
}

// shmArrive fires when a new request has crossed the networker thread and
// the networker→dispatcher cache-line channel.
//
//mindgap:noalloc
func shmArrive(recv, obj any, _ uint64) {
	recv.(*Shinjuku).dispatcher.Submit(obj.(*task.Request))
}

// armSlice implements dispatcher-driven preemption: the dispatcher tracks
// when each request started running and posts an interrupt when its slice
// expires (§2.1). The countdown is armed at actual execution start; the
// tracking costs the dispatcher nothing extra — the real implementation
// folds it into its polling loop — while interrupt receipt is charged on
// the worker by Exec.Interrupt.
//
//mindgap:noalloc
func (s *Shinjuku) armSlice(w *cores.Worker, req *task.Request) {
	if req.Remaining <= s.cfg.Slice {
		return
	}
	// The generation guards against pooled-request reuse: req may complete,
	// recycle, and restart on this worker before the slice expires.
	s.eng.AfterE(s.cfg.Slice, shinSliceFire, w, req, uint64(req.Gen))
}

// shinSliceFire posts the dispatcher-tracked preemption interrupt.
//
//mindgap:noalloc
func shinSliceFire(recv, obj any, gen uint64) {
	w := recv.(*cores.Worker)
	req := obj.(*task.Request)
	if w.Exec.Current() == req && uint64(req.Gen) == gen {
		w.Exec.Interrupt()
	}
}

// socket returns worker id's socket index (workers are split into
// contiguous blocks across sockets).
func (s *Shinjuku) socket(id int) int {
	if s.cfg.Sockets <= 1 {
		return 0
	}
	return id * s.cfg.Sockets / s.cfg.Workers
}

// QueueLen exposes the central queue depth.
func (s *Shinjuku) QueueLen() int { return s.dispatcher.QueueLen() }
