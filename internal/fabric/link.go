// Package fabric models the communication substrates connecting the
// simulated components: Ethernet wires, the NIC-internal path between the
// SmartNIC ARM complex and host cores (2.56 µs one way, §3.3), host
// cache-line channels, and the coherent CXL window of the §5 ideal NIC.
//
// All substrates share one abstraction, Link: a FIFO, point-to-point pipe
// with a propagation latency and an optional serialization bandwidth.
package fabric

import (
	"time"

	"mindgap/internal/sim"
	"mindgap/internal/telemetry"
)

// LinkConfig describes a link's physical properties.
type LinkConfig struct {
	// Latency is the one-way propagation delay applied to every message.
	Latency time.Duration
	// BandwidthBps is the serialization rate in bits per second; zero means
	// infinitely fast serialization (appropriate for cache-line channels).
	BandwidthBps float64
}

// Link is a point-to-point, order-preserving message pipe. Not safe for
// concurrent use — it lives inside a single-threaded simulation.
//
// A hop is one engine event when the link does not serialize, two otherwise
// (departure, then delivery). A plain link files the receiver's own event
// (sim.AtE, or sim.AtRelayE through the departure) and keeps no per-message
// state; an observed link (RegisterTelemetry) is tabled: messages park in
// pend and linkDepart/linkDeliver keep the gauges exact. Both take the same
// positions in the (time, seq) order, so attaching a registry changes
// neither a delivery nor Engine.Executed().
type Link struct {
	eng  *sim.Engine
	cfg  LinkConfig
	name string

	lastDeparture sim.Time
	stalls        uint64

	// fault, when set, is consulted once per message at send time: a true
	// drop loses the message on the wire (counted in faultDropped), and
	// extra adds propagation latency (a fabric latency spike). Nil — the
	// only state healthy systems ever see — leaves Send untouched.
	fault        func(sim.Time) (drop bool, extra time.Duration)
	faultDropped uint64

	// Tabled-path state, read only by the registry's gauges (a plain link
	// does not maintain it). latency is each message's send→deliver time —
	// the NIC↔host message latency of §3.3, inflated by serialization waits
	// near saturation. A pend slot's index rides through both events as the
	// scalar and recycles through freeSlots: no send allocates when warm.
	queued    int
	delivered uint64
	latency   *telemetry.Histogram
	pend      []pendingMsg
	freeSlots []uint32
}

// pendingMsg is one accepted, not-yet-delivered message on a tabled link.
type pendingMsg struct {
	fn        sim.EventFunc
	recv, obj any
	arg       uint64
	sent      sim.Time
	deliverAt sim.Time
}

// NewLink creates a link on the engine. name appears in diagnostics only.
func NewLink(eng *sim.Engine, name string, cfg LinkConfig) *Link {
	return &Link{eng: eng, cfg: cfg, name: name}
}

// Name returns the diagnostic name.
func (l *Link) Name() string { return l.name }

// Send enqueues a message of the given wire size; deliver runs at the
// receiver once serialization and propagation complete. It reports false
// (and counts a drop) when an injected wire fault loses the message. FIFO
// order is guaranteed: deliveries happen in Send order. The closure form
// allocates and serves tests; models use SendT.
func (l *Link) Send(bytes int, deliver func()) bool {
	return l.SendT(bytes, callClosure, deliver, nil, 0)
}

// callClosure adapts the closure delivery onto the typed path.
func callClosure(recv, _ any, _ uint64) { recv.(func())() }

// SendT is the typed, zero-alloc Send: fn(recv, obj, arg) runs at the
// receiver once serialization and propagation complete. See Link for when
// a hop costs one event or two and which path carries it.
//
//mindgap:noalloc
func (l *Link) SendT(bytes int, fn sim.EventFunc, recv, obj any, arg uint64) bool {
	now := l.eng.Now()
	latency := l.cfg.Latency
	if l.fault != nil {
		drop, extra := l.fault(now)
		if drop {
			// Lost on the wire: the message occupies no queue slot and no
			// serialization time, and the receiver never hears of it.
			l.faultDropped++
			return false
		}
		latency += extra
	}
	depart := now
	if l.lastDeparture > depart {
		// The transmitter is still serializing an earlier message: this
		// one stalls behind it (port serialization, §3.3).
		l.stalls++
		depart = l.lastDeparture
	}
	depart = depart.Add(l.serialization(bytes))
	l.lastDeparture = depart
	deliverAt := depart.Add(latency)

	if l.latency == nil { // plain: nothing watches the message in flight
		if l.cfg.BandwidthBps <= 0 {
			l.eng.AtE(deliverAt, fn, recv, obj, arg)
		} else {
			l.eng.AtRelayE(depart, deliverAt, fn, recv, obj, arg)
		}
		return true
	}

	var slot uint32
	if n := len(l.freeSlots); n > 0 {
		slot = l.freeSlots[n-1]
		l.freeSlots = l.freeSlots[:n-1]
	} else {
		slot = uint32(len(l.pend))
		l.pend = append(l.pend, pendingMsg{})
	}
	l.pend[slot] = pendingMsg{fn: fn, recv: recv, obj: obj, arg: arg, sent: now, deliverAt: deliverAt}
	if l.cfg.BandwidthBps <= 0 {
		l.eng.AtE(deliverAt, linkDeliver, l, nil, uint64(slot))
		return true
	}
	l.queued++
	l.eng.AtE(depart, linkDepart, l, nil, uint64(slot))
	return true
}

// linkDepart fires when a tabled message finishes serialization: the
// transmit queue slot frees and the propagation leg begins.
//
//mindgap:noalloc
func linkDepart(recv, _ any, slot uint64) {
	l := recv.(*Link)
	l.queued--
	l.eng.AtE(l.pend[slot].deliverAt, linkDeliver, l, nil, slot)
}

// linkDeliver fires at the receiver of a tabled message and hands off to
// its callback after releasing the in-flight slot.
//
//mindgap:noalloc
func linkDeliver(recv, _ any, slot uint64) {
	l := recv.(*Link)
	p := l.pend[slot]
	l.pend[slot] = pendingMsg{}
	l.freeSlots = append(l.freeSlots, uint32(slot))
	l.delivered++
	if l.latency != nil {
		l.latency.Observe(l.eng.Now().Sub(p.sent))
	}
	p.fn(p.recv, p.obj, p.arg)
}

// serialization returns how long a message of the given size occupies the
// transmitter.
//
//mindgap:noalloc
func (l *Link) serialization(bytes int) time.Duration {
	if l.cfg.BandwidthBps <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes*8) / l.cfg.BandwidthBps * 1e9)
}

// SetFault installs a per-message fault hook (see the fault field).
// Install before the simulation starts.
func (l *Link) SetFault(f func(sim.Time) (drop bool, extra time.Duration)) { l.fault = f }

// FaultDropped returns the number of messages lost to injected wire
// faults.
func (l *Link) FaultDropped() uint64 { return l.faultDropped }

// RegisterTelemetry exposes the link's counters on reg under the given
// component label and starts recording per-message latency into the
// registry's component/"latency" histogram. It moves the link onto the
// tabled path (see Link); attach before the simulation starts, as messages
// already in flight are not counted.
func (l *Link) RegisterTelemetry(reg *telemetry.Registry, component string) {
	l.latency = reg.Histogram(component, "latency")
	reg.GaugeFunc(component, "queued", func() float64 { return float64(l.queued) })
	reg.GaugeFunc(component, "delivered", func() float64 { return float64(l.delivered) })
	reg.GaugeFunc(component, "stalls", func() float64 { return float64(l.stalls) })
	reg.GaugeFunc(component, "fault_dropped", func() float64 { return float64(l.faultDropped) })
}
