// Package params centralizes every calibration constant used by the
// hardware models. Constants that the paper states explicitly (clock rates,
// the 2.56 µs NIC↔host latency, APIC timer cycle costs, the 5 M req/s
// dispatcher capacity, the 10 µs preemption slice) are taken verbatim;
// constants the paper implies (the ARM dispatcher pipeline stage cost) are
// calibrated so the modelled systems saturate where the paper's figures say
// they do. See DESIGN.md for the derivations.
package params

import "time"

// Clock models a CPU clock and converts cycle counts to wall time.
type Clock struct {
	// Hz is the core frequency in cycles per second.
	Hz float64
}

// CyclesToDuration converts a cycle count on this clock to a duration,
// rounding to the nearest nanosecond (the simulator's resolution).
func (c Clock) CyclesToDuration(cycles float64) time.Duration {
	if c.Hz <= 0 {
		return 0
	}
	ns := cycles / c.Hz * 1e9
	return time.Duration(ns + 0.5)
}

// TimerProfile is the cost of arming a one-shot timer and of taking its
// interrupt, in cycles on the host clock. The paper (§3.4.4) measures two
// profiles: the stock Linux timer path and the Dune-mapped local APIC path
// with posted interrupts.
type TimerProfile struct {
	Name string
	// ArmCycles is the cost of setting the timer.
	ArmCycles float64
	// FireCycles is the cost of receiving the timer interrupt.
	FireCycles float64
}

// Timer profiles measured in §3.4.4.
var (
	// LinuxTimer is the unoptimized path: timer set via the kernel,
	// interrupt delivered as a signal.
	LinuxTimer = TimerProfile{Name: "linux", ArmCycles: 610, FireCycles: 4193}
	// DirectAPIC is the Dune path: APIC timer registers mapped into the
	// process, interrupt delivered as a posted interrupt.
	DirectAPIC = TimerProfile{Name: "direct-apic", ArmCycles: 40, FireCycles: 1272}
)

// Params is the full set of model constants for one simulated deployment.
type Params struct {
	// HostClock is the x86 server clock (2.3 GHz Intel E5-2658, §4).
	HostClock Clock

	// NicHostOneWay is the measured one-way latency for a message from the
	// SmartNIC ARM CPU to a host core (or back), including packet
	// construction and NIC traversal (§3.3: 2.56 µs).
	NicHostOneWay time.Duration
	// CXLOneWay is the projected one-way latency for a coherent
	// shared-memory path (§5.1: "a few hundred nanoseconds to a
	// microsecond"): the delay of the directirq ablation's posted
	// interrupts.
	CXLOneWay time.Duration
	// CacheLine is the one-way latency of host inter-thread communication
	// through a shared cache line (vanilla Shinjuku's IPC mechanism).
	CacheLine time.Duration
	// ClientWireOneWay is the one-way client↔server network latency,
	// a constant offset on every measured response time.
	ClientWireOneWay time.Duration

	// WireBandwidth is the Ethernet port rate in bits per second (10 GbE).
	WireBandwidth float64
	// RequestFrameBytes is the on-wire size of a request frame, and
	// ResponseFrameBytes of a response frame (64 B requests per §1 plus
	// Ethernet/IP/UDP overhead; see internal/wire for exact layout).
	RequestFrameBytes  int
	ResponseFrameBytes int
	// ControlFrameBytes is the size of dispatcher↔worker control messages
	// (assign/finish/preempt) which carry only a descriptor.
	ControlFrameBytes int

	// HostDispatchCost is the per-request cost of the vanilla Shinjuku
	// dispatcher on a host core. 200 ns reproduces the paper's 5 M req/s
	// dispatcher capacity (§1, §2.2 item 3).
	HostDispatchCost time.Duration
	// HostCompletionCost is the dispatcher-side cost of consuming a worker
	// completion flag (credit release).
	HostCompletionCost time.Duration
	// HostNetworkerCost is the per-packet cost of the vanilla Shinjuku
	// networking subsystem (parse UDP, hand off to dispatcher).
	HostNetworkerCost time.Duration

	// ArmNetworkerCost is the per-packet cost of the offloaded networking
	// subsystem on a Stingray ARM core.
	ArmNetworkerCost time.Duration
	// ArmQueueCost is the cost on the queue-manager ARM core of admitting a
	// new or preempted request (enqueue + dequeue + core selection).
	ArmQueueCost time.Duration
	// ArmCreditCost is the cost on the queue-manager ARM core of processing
	// a completion notification (credit release + possible dispatch).
	ArmCreditCost time.Duration
	// ArmTxCost is the per-request cost of the ARM core that packetizes
	// dequeued requests and hands them to the NIC.
	ArmTxCost time.Duration
	// ArmRxCost is the per-notification cost of the ARM core that polls for
	// and parses worker responses.
	ArmRxCost time.Duration
	// ArmShm is the one-way latency of shared-memory handoff between the
	// three ARM dispatcher cores (§3.4.1: "communicate via shared memory").
	ArmShm time.Duration

	// WorkerPickupCost is the host-side cost to pull a request descriptor
	// out of the worker's RX queue and spawn/resume its context, assuming
	// the packet bytes are already in a near cache.
	WorkerPickupCost time.Duration
	// PickupMemPenalty is the extra cost of fetching the packet from LLC
	// or DRAM into the core's L1 on pickup. §5.2's DDIO-to-L1 idea — safe
	// because the scheduler bounds outstanding requests per core — waives
	// this penalty: a spec calibrates it to zero.
	PickupMemPenalty time.Duration
	// NUMAPenalty is the additional pickup cost when the packet was
	// DDIO-placed into the LLC of a *different* socket than the worker's
	// (§1: "the situation is worse if the worker chosen by the dispatcher
	// is not on the socket whose last-level cache had the packet
	// pre-loaded with DDIO"). An informed NIC avoids it by DMAing into
	// the chosen worker's socket.
	NUMAPenalty time.Duration
	// WorkerNotifyCost is the host-side cost to build the FINISH/PREEMPTED
	// notification packet for the dispatcher.
	WorkerNotifyCost time.Duration
	// WorkerResponseCost is the host-side cost to build the client response.
	WorkerResponseCost time.Duration
	// CtxSaveCost is the cost of saving a preempted context (stack and
	// register state) to host DRAM; CtxResumeCost of restoring one.
	CtxSaveCost   time.Duration
	CtxResumeCost time.Duration
	// CtxMigratePenalty is the extra resume cost when a preempted request
	// resumes on a *different* core than it last ran on: its stack and
	// data are in the previous core's caches. §3.1's affinity feedback
	// exists to avoid this.
	CtxMigratePenalty time.Duration

	// HostTimer is the timer profile used by workers (Dune direct APIC by
	// default); LinuxTimerProfile kept for the T1 comparison table.
	HostTimer TimerProfile

	// StealCost is the one-off cost a ZygOS worker pays to steal a request
	// from a sibling's queue (cross-core cache traffic, §2.2 item 4).
	StealCost time.Duration

	// RPCValetDispatchCost is the per-request cost of the RPCValet-style
	// integrated NI hardware queue (tens of ns; it is an ASIC).
	RPCValetDispatchCost time.Duration
	// RPCValetLinkLatency is the NI→core delivery latency of RPCValet's
	// integrated network interface ("close to the cores", §2.1).
	RPCValetLinkLatency time.Duration
}

// Default returns the calibrated parameter set used by every experiment
// unless a spec's calibration block overrides a field.
func Default() Params {
	return Params{
		HostClock: Clock{Hz: 2.3e9},

		NicHostOneWay:    2560 * time.Nanosecond,
		CXLOneWay:        500 * time.Nanosecond,
		CacheLine:        400 * time.Nanosecond,
		ClientWireOneWay: 5 * time.Microsecond,

		WireBandwidth:      10e9,
		RequestFrameBytes:  128,
		ResponseFrameBytes: 128,
		ControlFrameBytes:  64,

		HostDispatchCost:   200 * time.Nanosecond,
		HostCompletionCost: 80 * time.Nanosecond,
		HostNetworkerCost:  120 * time.Nanosecond,

		ArmNetworkerCost: 450 * time.Nanosecond,
		ArmQueueCost:     500 * time.Nanosecond,
		ArmCreditCost:    150 * time.Nanosecond,
		ArmTxCost:        600 * time.Nanosecond,
		ArmRxCost:        550 * time.Nanosecond,
		ArmShm:           200 * time.Nanosecond,

		WorkerPickupCost:   40 * time.Nanosecond,
		PickupMemPenalty:   60 * time.Nanosecond,
		NUMAPenalty:        300 * time.Nanosecond,
		WorkerNotifyCost:   250 * time.Nanosecond,
		WorkerResponseCost: 150 * time.Nanosecond,
		CtxSaveCost:        120 * time.Nanosecond,
		CtxResumeCost:      120 * time.Nanosecond,
		CtxMigratePenalty:  250 * time.Nanosecond,

		HostTimer: DirectAPIC,

		StealCost: 600 * time.Nanosecond,

		RPCValetDispatchCost: 40 * time.Nanosecond,
		RPCValetLinkLatency:  50 * time.Nanosecond,
	}
}

// ArmStageMax returns the per-request cost of the busiest ARM dispatcher
// pipeline stage — the bottleneck that caps offload dispatcher throughput.
// In steady state (no preemption) each completed request crosses the queue
// manager twice (admit + credit) and each other stage once.
func (p Params) ArmStageMax() time.Duration {
	m := p.ArmQueueCost + p.ArmCreditCost
	if p.ArmNetworkerCost > m {
		m = p.ArmNetworkerCost
	}
	if p.ArmTxCost > m {
		m = p.ArmTxCost
	}
	if p.ArmRxCost > m {
		m = p.ArmRxCost
	}
	return m
}

// PickupCost returns the total cost of pulling a request into execution on
// a worker core: descriptor handling plus the near-cache fetch penalty.
func (p Params) PickupCost() time.Duration {
	return p.WorkerPickupCost + p.PickupMemPenalty
}

// FrameWireTime returns how long a frame of the given size occupies a port
// at the configured wire bandwidth.
func (p Params) FrameWireTime(bytes int) time.Duration {
	if p.WireBandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(bytes*8) / p.WireBandwidth * 1e9)
}
