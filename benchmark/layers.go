package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/cores"
	"mindgap/internal/dist"
	"mindgap/internal/fabric"
	"mindgap/internal/loadgen"
	"mindgap/internal/nicmodel"
	"mindgap/internal/queue"
	"mindgap/internal/runner"
	"mindgap/internal/sim"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// Per-layer micro-drivers. Each calls only a layer's public functions, at
// the occupancy the layer sees inside the workload named in its comment,
// and reports host nanoseconds per operation (and, where the layer
// schedules engine events, events per operation — an exact count).
//
// A driver is a set-up function returning the timed batch: state is built
// outside the timed region, so the number is steady-state cost.

// microDef is one micro-driver.
type microDef struct {
	// NS names the ns-per-op metric; Events, when set, names the exact
	// events-per-op metric derived from the same batch.
	NS, Events string
	// Ops is the batch size: operations per timed batch.
	Ops int
	// Setup builds fresh state and returns the batch; the batch runs Ops
	// operations and returns engine events executed (0 if no engine).
	Setup func(ops int) func() uint64
}

// microBatches is how many batches each driver times; the metric is the
// median batch.
const microBatches = 5

var bimodal = dist.Bimodal{P1: 0.995, D1: 5 * time.Microsecond, D2: 100 * time.Microsecond}

var microDefs = []microDef{
	{NS: "sim.schedule_fire_ns", Ops: 400_000, Setup: func(ops int) func() uint64 {
		// fig2_offload occupancy: 24 pending events, near-term delays.
		return chains(24, ops, []time.Duration{0, 200 * time.Nanosecond, 2560 * time.Nanosecond, 5 * time.Microsecond, 10 * time.Microsecond})
	}},
	{NS: "sim.schedule_fire_wide_ns", Ops: 400_000, Setup: func(ops int) func() uint64 {
		// flowrule_4k occupancy: 76 pending events, idle timers 50 ms out.
		return chains(76, ops, []time.Duration{2 * time.Microsecond, 2500 * time.Nanosecond, 50 * time.Microsecond, time.Millisecond, 50 * time.Millisecond})
	}},
	{NS: "sim.timer_arm_stop_ns", Ops: 400_000, Setup: func(ops int) func() uint64 {
		eng := sim.New()
		for i := 0; i < 24; i++ {
			eng.AfterE(time.Duration(i+1)*time.Microsecond, nopEvent, nil, nil, 0)
		}
		var tm sim.Timer
		return func() uint64 {
			for i := 0; i < ops; i++ {
				eng.ArmAfterE(&tm, 10*time.Microsecond, nopEvent, nil, nil, 0)
				tm.Stop()
			}
			return 0
		}
	}},
	{NS: "fabric.link_hop_ns", Events: "fabric.link_events_per_hop", Ops: 200_000, Setup: func(ops int) func() uint64 {
		// One message in flight on the 2.56 µs / 10 GbE link: the queue is
		// empty at every send, the case a serialise+propagate fusion targets.
		return linkHops(ops, 1)
	}},
	{NS: "fabric.link_hop_queued_ns", Ops: 200_000, Setup: func(ops int) func() uint64 {
		// Eight back-to-back sends: all but the first find the transmitter
		// busy. A fusion must not slow this path.
		return linkHops(ops, 8)
	}},
	{NS: "fabric.stage_serve_ns", Events: "fabric.stage_events_per_item", Ops: 200_000, Setup: func(ops int) func() uint64 {
		eng := sim.New()
		left := ops
		var st *fabric.Stage[int]
		st = fabric.NewStage[int](eng, "stage", 0, fabric.FixedCost[int](200*time.Nanosecond), func(int) {
			if left--; left > 0 {
				st.Submit(0)
			}
		})
		return func() uint64 {
			st.Submit(0)
			eng.Run()
			return eng.Executed()
		}
	}},
	{NS: "fabric.multistage_serve_ns", Ops: 200_000, Setup: func(ops int) func() uint64 {
		eng := sim.New()
		left := ops
		var st *fabric.MultiStage[int]
		st = fabric.NewMultiStage[int](eng, "multistage", 2, []int{0, 0}, fabric.FixedCost[int](200*time.Nanosecond), func(class int) {
			if left--; left > 0 {
				st.Submit(1-class, 1-class)
			}
		})
		return func() uint64 {
			st.Submit(0, 0)
			eng.Run()
			return eng.Executed()
		}
	}},
	{NS: "nicmodel.steer_ns", Events: "nicmodel.events_per_frame", Ops: 200_000, Setup: func(ops int) func() uint64 {
		// A frame ping-pongs between two functions across the 2.56 µs
		// NIC-internal hop: Send steers by MAC, delivery lands in the RX
		// ring, the receiver polls it out.
		eng := sim.New()
		nic := nicmodel.New(eng, nicmodel.Config{InternalLatency: 2560 * time.Nanosecond})
		macs := [2]nicmodel.Frame{
			{Dst: nicmodel.MACForIndex(0), Src: nicmodel.MACForIndex(1), Bytes: 64},
			{Dst: nicmodel.MACForIndex(1), Src: nicmodel.MACForIndex(0), Bytes: 64},
		}
		left := ops
		for i := 0; i < 2; i++ {
			i := i
			fn := nic.AddFunction(fmt.Sprintf("fn%d", i), nicmodel.MACForIndex(i), 0)
			fn.OnRx(func() {
				fn.Poll()
				if left--; left > 0 {
					nic.Send(macs[1-i])
				}
			})
		}
		return func() uint64 {
			nic.Send(macs[0])
			eng.Run()
			return eng.Executed()
		}
	}},
	{NS: "cores.run_ns", Events: "cores.events_per_run", Ops: 200_000, Setup: func(ops int) func() uint64 {
		// 5 µs under a 10 µs self-armed slice: the timer is armed and the
		// request completes before it would fire.
		return execRuns(ops, 5*time.Microsecond)
	}},
	{NS: "cores.preempt_resume_ns", Ops: 200_000, Setup: func(ops int) func() uint64 {
		// 100 µs under a 10 µs slice: nine preemptions and resumes per
		// request; the operation is one Start (one slice).
		return execRuns(ops, 100*time.Microsecond)
	}},
	{NS: "core.logic_cycle_ns_4w", Ops: 400_000, Setup: func(ops int) func() uint64 { return logicCycles(ops, 4, 4) }},
	{NS: "core.logic_cycle_ns_16w", Ops: 400_000, Setup: func(ops int) func() uint64 { return logicCycles(ops, 16, 5) }},
	{NS: "loadgen.tick_ns", Events: "loadgen.events_per_arrival", Ops: 200_000, Setup: func(ops int) func() uint64 {
		eng := sim.New()
		pool := &task.Pool{}
		g := loadgen.New(eng, loadgen.Config{RPS: bimodalRPS, Service: bimodal, Seed: 7, MaxArrivals: uint64(ops), Pool: pool}, pool.Put)
		return func() uint64 {
			g.Start()
			eng.Run()
			return eng.Executed()
		}
	}},
	{NS: "loadgen.flow_tick_ns", Ops: 200_000, Setup: func(ops int) func() uint64 {
		eng := sim.New()
		pool := &task.Pool{}
		g := loadgen.NewFlow(eng, loadgen.FlowConfig{
			RPS: 400_000, Service: dist.Fixed{D: 170 * time.Nanosecond}, Flows: 4096,
			ElephantFraction: 0.2, RatTrain: 16, Seed: 7, MaxArrivals: uint64(ops),
			Pool: pool, FlowPool: &task.FlowPool{},
		}, func(r *task.Request) {
			f := r.FlowState
			f.InFlight--
			f.ReleaseIfIdle()
			pool.Put(r)
		})
		return func() uint64 {
			g.Start()
			eng.Run()
			return eng.Executed()
		}
	}},
	{NS: "dist.bimodal_sample_ns", Ops: 1_000_000, Setup: func(ops int) func() uint64 {
		rng := rand.New(rand.NewPCG(7, 7))
		return func() uint64 {
			var sum time.Duration
			for i := 0; i < ops; i++ {
				sum += bimodal.Sample(rng)
			}
			microSink = uint64(sum)
			return 0
		}
	}},
	{NS: "task.pool_cycle_ns", Ops: 1_000_000, Setup: func(ops int) func() uint64 {
		pool := &task.Pool{}
		var live [16]*task.Request
		for i := range live {
			live[i] = pool.Get(uint64(i), 0, time.Microsecond)
		}
		return func() uint64 {
			for i := 0; i < ops; i++ {
				pool.Put(live[i&15])
				live[i&15] = pool.Get(uint64(i), sim.Time(i), time.Microsecond)
			}
			return 0
		}
	}},
	{NS: "queue.ring_cycle_ns", Ops: 1_000_000, Setup: func(ops int) func() uint64 {
		ring := queue.NewRing[int](256)
		for i := 0; i < 4; i++ {
			ring.Push(i)
		}
		return func() uint64 {
			for i := 0; i < ops; i++ {
				ring.Push(i)
				v, _ := ring.Pop()
				microSink += uint64(v)
			}
			return 0
		}
	}},
	{NS: "stats.hist_record_ns", Ops: 1_000_000, Setup: func(ops int) func() uint64 {
		var h stats.Histogram
		lat := latencies()
		return func() uint64 {
			for i := 0; i < ops; i++ {
				h.Record(lat[i&1023])
			}
			return 0
		}
	}},
	{NS: "stats.recorder_latency_ns", Ops: 1_000_000, Setup: func(ops int) func() uint64 {
		var rec stats.Recorder
		rec.Arm(0)
		lat := latencies()
		return func() uint64 {
			for i := 0; i < ops; i++ {
				rec.RecordLatency(lat[i&1023])
			}
			return 0
		}
	}},
	{NS: "runner.dispatch_ns_per_point", Ops: 20_000, Setup: func(ops int) func() uint64 {
		// runner.Run over no-op points: the fixed cost the sweep runner adds
		// to every point of a grid.
		pts := make([]runner.Point[int], ops)
		for i := range pts {
			pts[i].Run = func() int { return 0 }
		}
		sw := runner.Sweep[int]{Name: "noop", Series: []runner.Series[int]{{Label: "noop", Points: pts}}}
		rn := &runner.Runner{Parallelism: gridJobs()}
		return func() uint64 {
			if _, err := runner.Run(context.Background(), rn, sw); err != nil {
				panic(err)
			}
			return 0
		}
	}},
}

// microSink keeps results of pure-compute drivers live.
var microSink uint64

func nopEvent(_, _ any, _ uint64) {}

// latencies is a fixed spread of latency values around the workloads' range.
func latencies() []time.Duration {
	rng := rand.New(rand.NewPCG(11, 13))
	out := make([]time.Duration, 1024)
	for i := range out {
		out[i] = 20*time.Microsecond + time.Duration(rng.IntN(200_000))
	}
	return out
}

// chain is one self-rescheduling event stream of the engine drivers.
type chain struct {
	eng    *sim.Engine
	delays []time.Duration
	i      int
	left   *int
}

func chainFire(recv, _ any, _ uint64) {
	c := recv.(*chain)
	if *c.left <= 0 {
		return
	}
	*c.left--
	c.i++
	c.eng.AfterE(c.delays[c.i%len(c.delays)], chainFire, c, nil, 0)
}

// chains holds n events pending at all times: each firing schedules its
// chain's next event, with delays cycling through the given set.
func chains(n, ops int, delays []time.Duration) func() uint64 {
	eng := sim.New()
	left := ops
	for i := 0; i < n; i++ {
		c := &chain{eng: eng, delays: delays, i: i, left: &left}
		eng.AfterE(delays[i%len(delays)], chainFire, c, nil, 0)
	}
	return func() uint64 {
		eng.Run()
		return eng.Executed()
	}
}

// hopper drives a link with bursts of `burst` messages: the last delivery
// of a burst sends the next burst.
type hopper struct {
	link        *fabric.Link
	burst, left int
}

func hopDelivered(recv, _ any, last uint64) {
	h := recv.(*hopper)
	h.left--
	if last == 1 && h.left > 0 {
		h.send()
	}
}

func (h *hopper) send() {
	for i := 1; i <= h.burst; i++ {
		var last uint64
		if i == h.burst {
			last = 1
		}
		h.link.SendT(64, hopDelivered, h, nil, last)
	}
}

func linkHops(ops, burst int) func() uint64 {
	eng := sim.New()
	link := fabric.NewLink(eng, "hop", fabric.LinkConfig{Latency: 2560 * time.Nanosecond, BandwidthBps: 10e9})
	h := &hopper{link: link, burst: burst, left: ops}
	return func() uint64 {
		h.send()
		eng.Run()
		return eng.Executed()
	}
}

// execRuns drives one core: every completion starts the next request and
// every preemption resumes the same one, ops Starts in all.
func execRuns(ops int, service time.Duration) func() uint64 {
	eng := sim.New()
	pool := &task.Pool{}
	left := ops
	var ex *cores.Exec
	var id uint64
	start := func(r *task.Request) {
		if left--; left >= 0 {
			ex.Start(r)
		}
	}
	next := func(done *task.Request) {
		pool.Put(done)
		id++
		start(pool.Get(id, eng.Now(), service))
	}
	ex = cores.NewExec(eng, 0, cores.ExecConfig{Slice: 10 * time.Microsecond, SelfArm: true}, next, start)
	return func() uint64 {
		start(pool.Get(0, 0, service))
		eng.Run()
		return eng.Executed()
	}
}

// logicCycles drives the dispatcher state machine at half its credit
// capacity: each operation enqueues one request and completes the oldest
// outstanding one.
func logicCycles(ops, workers, k int) func() uint64 {
	l := core.NewLogic(workers, k, core.LeastOutstanding)
	pool := &task.Pool{}
	depth := workers * k / 2
	// outstanding is a FIFO of assignments awaiting completion; a ring, so
	// the driver's own bookkeeping stays O(1) per operation.
	outstanding := queue.NewRing[core.Assignment](2 * workers * k)
	scratch := make([]core.Assignment, 0, 4)
	enqueue := func(i int) {
		scratch = l.EnqueueTo(scratch[:0], sim.Time(i), pool.Get(uint64(i), sim.Time(i), time.Microsecond))
		for _, a := range scratch {
			outstanding.Push(a)
		}
	}
	for i := 0; i < depth; i++ {
		enqueue(i)
	}
	return func() uint64 {
		for i := 0; i < ops; i++ {
			enqueue(depth + i)
			a, _ := outstanding.Pop()
			pool.Put(a.Req)
			scratch = l.CompleteTo(scratch[:0], a.Worker)
			for _, a := range scratch {
				outstanding.Push(a)
			}
		}
		return 0
	}
}

// microResult is one driver's outcome.
type microResult struct {
	NSPerOp     float64
	EventsPerOp float64
}

// runMicro times microBatches batches of one driver and keeps the median;
// spans, when given, receives one child span per batch.
func runMicro(d microDef, spans *spanLog, parent int) microResult {
	var ns []float64
	var events uint64
	for b := 0; b < microBatches; b++ {
		batch := d.Setup(d.Ops)
		id := spans.begin(d.NS, parent)
		start := time.Now()
		events = batch()
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(d.Ops))
		spans.end(id)
	}
	return microResult{NSPerOp: median(ns), EventsPerOp: float64(events) / float64(d.Ops)}
}
