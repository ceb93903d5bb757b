// Package erss models Elastic RSS (Rucker et al., APNet '19), the §5.1
// related system: hardware RSS whose set of provisioned cores grows and
// shrinks with load at microsecond scale, driven by fine-grained host load
// feedback — but with the scheduling policy itself fixed in hardware and
// no preemption.
//
// eRSS sits between plain RSS and the informed NIC scheduler: it uses load
// feedback (like the paper's proposal) but only to resize the hash target
// set, so it repairs provisioning, not head-of-line blocking. The contrast
// motivates the paper's claim that the *policy*, not just parameters,
// should be programmable.
package erss

import (
	"time"

	"mindgap/internal/cores"
	"mindgap/internal/fabric"
	"mindgap/internal/params"
	"mindgap/internal/probe"
	"mindgap/internal/queue"
	"mindgap/internal/sim"
	"mindgap/internal/task"
)

// Config describes one eRSS deployment.
type Config struct {
	// P is the hardware cost model.
	P params.Params
	// Workers is the maximum number of provisionable cores.
	Workers int
	// MinWorkers is the floor of the provisioned set (default 1).
	MinWorkers int
	// Interval is the reprovisioning period — eRSS adapts "on the µs
	// scale" (default 20µs).
	Interval time.Duration
	// UpThreshold and DownThreshold are per-provisioned-core queue-depth
	// watermarks: above Up, add a core; below Down, remove one.
	// Defaults: 2.0 and 0.5.
	UpThreshold, DownThreshold float64
}

// ERSS is the simulated Elastic RSS system.
type ERSS struct {
	eng  *sim.Engine
	cfg  Config
	done func(*task.Request)
	pr   *probe.Probe

	ingress *fabric.Link
	egress  *fabric.Link
	workers []*worker

	// provisioned is the current RSS indirection set size: arrivals hash
	// into workers [0, provisioned).
	provisioned int
	resizes     uint64
}

type worker struct {
	sys      *ERSS
	id       int
	q        queue.FIFO[*task.Request]
	exec     *cores.Exec
	starting bool
	post     bool
}

// New builds the system. done runs when the client receives each response;
// pr (optional) carries the run's observers.
func New(eng *sim.Engine, cfg Config, pr *probe.Probe, done func(*task.Request)) *ERSS {
	if cfg.Workers <= 0 {
		panic("erss: need workers")
	}
	if done == nil {
		panic("erss: need a completion callback")
	}
	if cfg.MinWorkers <= 0 {
		cfg.MinWorkers = 1
	}
	if cfg.MinWorkers > cfg.Workers {
		cfg.MinWorkers = cfg.Workers
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Microsecond
	}
	if cfg.UpThreshold <= 0 {
		cfg.UpThreshold = 2.0
	}
	if cfg.DownThreshold <= 0 {
		cfg.DownThreshold = 0.5
	}
	p := cfg.P
	s := &ERSS{
		eng: eng, cfg: cfg, done: done, pr: pr,
		provisioned: cfg.MinWorkers,
	}
	s.ingress = fabric.NewLink(eng, "client→nic", fabric.LinkConfig{
		Latency: p.ClientWireOneWay, BandwidthBps: p.WireBandwidth,
	})
	s.egress = fabric.NewLink(eng, "nic→client", fabric.LinkConfig{
		Latency: p.ClientWireOneWay, BandwidthBps: p.WireBandwidth,
	})
	execCfg := cores.ExecConfig{
		Clock: p.HostClock, Timer: p.HostTimer,
		Slice: 0, SelfArm: false, // no preemption: eRSS's fixed policy
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{sys: s, id: i}
		w.exec = cores.NewExec(eng, i, execCfg, w.onComplete, nil)
		s.workers = append(s.workers, w)
	}
	// The reprovisioning loop runs on the NIC from host load feedback.
	eng.AfterE(cfg.Interval, erssReprovision, s, nil, 0)
	return s
}

// Name implements the experiment System interface.
func (s *ERSS) Name() string { return "erss" }

// Inject admits a client request at the current instant.
func (s *ERSS) Inject(req *task.Request) {
	s.pr.Arrive(s.eng.Now(), req.ID, req.Service)
	s.ingress.SendT(s.cfg.P.RequestFrameBytes, erssIngress, s, req, 0)
}

// erssIngress fires when a request frame reaches the NIC: RSS hash over
// the provisioned set only.
//
//mindgap:noalloc
func erssIngress(recv, obj any, _ uint64) {
	s := recv.(*ERSS)
	req := obj.(*task.Request)
	w := s.workers[int(splitmix64(req.ID)%uint64(s.provisioned))]
	// As in rtc, steering collapses ingress, dispatch and DMA into one instant.
	now := s.eng.Now()
	s.pr.Ingress(now, req.ID)
	s.pr.Enqueue(now, req.ID)
	s.pr.Dispatch(now, req.ID, w.id)
	s.pr.HostArrive(now, req.ID)
	w.q.Push(req)
	w.maybeStart()
}

// erssReprovision is the periodic reprovisioning tick.
//
//mindgap:noalloc
func erssReprovision(recv, _ any, _ uint64) {
	recv.(*ERSS).reprovision()
}

// reprovision implements the elastic part: watermark-based resizing of the
// RSS indirection set from instantaneous queue-depth feedback.
//
//mindgap:noalloc
func (s *ERSS) reprovision() {
	backlog := 0
	for i := 0; i < s.provisioned; i++ {
		backlog += s.workers[i].q.Len()
		if s.workers[i].exec.Busy() {
			backlog++
		}
	}
	perCore := float64(backlog) / float64(s.provisioned)
	switch {
	case perCore > s.cfg.UpThreshold && s.provisioned < s.cfg.Workers:
		s.provisioned++
		s.resizes++
	case perCore < s.cfg.DownThreshold && s.provisioned > s.cfg.MinWorkers:
		// A deprovisioned core finishes its queue; new arrivals just stop
		// hashing to it.
		s.provisioned--
		s.resizes++
	}
	s.eng.AfterE(s.cfg.Interval, erssReprovision, s, nil, 0)
}

//mindgap:noalloc
func (w *worker) maybeStart() {
	if w.exec.Busy() || w.starting || w.post || w.q.Len() == 0 {
		return
	}
	w.starting = true
	cost := w.sys.cfg.P.HostNetworkerCost + w.sys.cfg.P.PickupCost(false)
	w.sys.eng.AfterE(cost, erssPickup, w, nil, 0)
}

// erssPickup fires once parse+pickup has elapsed.
//
//mindgap:noalloc
func erssPickup(recv, _ any, _ uint64) {
	w := recv.(*worker)
	w.starting = false
	if req, ok := w.q.Pop(); ok {
		w.sys.pr.Start(w.sys.eng.Now(), req.ID, w.id)
		w.exec.Start(req)
	}
}

//mindgap:noalloc
func (w *worker) onComplete(req *task.Request) {
	w.sys.pr.Complete(w.sys.eng.Now(), req.ID, w.id)
	w.post = true
	w.sys.eng.AfterE(w.sys.cfg.P.WorkerResponseCost, erssResponseBuilt, w, req, 0)
}

// erssResponseBuilt fires once the worker has built the response packet.
//
//mindgap:noalloc
func erssResponseBuilt(recv, obj any, _ uint64) {
	w := recv.(*worker)
	sys := w.sys
	sys.egress.SendT(sys.cfg.P.ResponseFrameBytes, erssRespond, sys, obj, 0)
	w.post = false
	w.maybeStart()
}

// erssRespond fires when the response frame reaches the client.
//
//mindgap:noalloc
func erssRespond(recv, obj any, _ uint64) {
	s := recv.(*ERSS)
	req := obj.(*task.Request)
	s.pr.Respond(s.eng.Now(), req.ID)
	s.done(req)
}

// Provisioned returns the current RSS set size.
func (s *ERSS) Provisioned() int { return s.provisioned }

// Resizes returns how many reprovisioning steps have fired.
func (s *ERSS) Resizes() uint64 { return s.resizes }

// WorkerIdleFraction returns the mean idle fraction across all cores
// (including deprovisioned ones — eRSS's efficiency win is that idle cores
// can do other work, which this statistic surfaces).
func (s *ERSS) WorkerIdleFraction(now sim.Time) float64 {
	var sum float64
	for _, w := range s.workers {
		sum += w.exec.Track.IdleFraction(now)
	}
	return sum / float64(len(s.workers))
}

// ArmWorkerTrackers starts busy-time accounting at now.
func (s *ERSS) ArmWorkerTrackers(now sim.Time) {
	for _, w := range s.workers {
		w.exec.Track.Arm(now)
	}
}

// Completions returns total completed requests.
func (s *ERSS) Completions() uint64 {
	var n uint64
	for _, w := range s.workers {
		n += w.exec.Completions()
	}
	return n
}

// splitmix64 is the SplitMix64 finalizer (the stand-in RSS hash).
//
//mindgap:noalloc
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
