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
// (departure, then delivery): every link files the receiver's own event
// (sim.AtE, or sim.AtRelayE through the departure) at send time. An observed
// link (RegisterTelemetry) files the same events; it only notes each
// accepted message's latency and its (depart, deliver) instants, which the
// gauges count at read time. Attaching a registry therefore changes neither
// a delivery nor Engine.Executed().
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

	// Observed-link state (nil latency: a plain link keeps none). latency
	// is each message's send→deliver time — the NIC↔host message latency
	// of §3.3, inflated by serialization waits near saturation — known
	// exactly at send. flight holds the spans of messages that may still be
	// in flight; accepted counts every message sent.
	latency  *telemetry.Histogram
	accepted uint64
	flight   []span
}

// span is one accepted message's departure and delivery instants.
type span struct{ depart, deliver sim.Time }

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
// a hop costs one event or two.
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

	if l.latency != nil {
		l.observe(now, depart, deliverAt)
	}
	if l.cfg.BandwidthBps <= 0 {
		l.eng.AtE(deliverAt, fn, recv, obj, arg)
	} else {
		l.eng.AtRelayE(depart, deliverAt, fn, recv, obj, arg)
	}
	return true
}

// observe records an accepted message on an observed link and forgets the
// spans already delivered before now. The span list grows to the link's
// peak in-flight count, so observe is not noalloc.
func (l *Link) observe(now, depart, deliver sim.Time) {
	l.latency.Observe(deliver.Sub(now))
	l.accepted++
	done := 0
	for done < len(l.flight) && l.flight[done].deliver < now {
		done++
	}
	if done > 0 {
		l.flight = append(l.flight[:0], l.flight[done:]...)
	}
	l.flight = append(l.flight, span{depart, deliver})
}

// inFlight counts the recorded messages still serializing and those not
// yet delivered at the current instant. A message due exactly now counts as
// delivered, as it is once RunUntil returns (it fires every event at its
// bound).
func (l *Link) inFlight() (serializing, undelivered int) {
	now := l.eng.Now()
	for _, s := range l.flight {
		if s.depart > now {
			serializing++
		}
		if s.deliver > now {
			undelivered++
		}
	}
	return serializing, undelivered
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
// registry's component/"latency" histogram. Attach before the simulation
// starts, as messages already in flight are not counted.
func (l *Link) RegisterTelemetry(reg *telemetry.Registry, component string) {
	l.latency = reg.Histogram(component, "latency")
	reg.GaugeFunc(component, "queued", func() float64 {
		serializing, _ := l.inFlight()
		return float64(serializing)
	})
	reg.GaugeFunc(component, "delivered", func() float64 {
		_, undelivered := l.inFlight()
		return float64(l.accepted - uint64(undelivered))
	})
	reg.GaugeFunc(component, "stalls", func() float64 { return float64(l.stalls) })
	reg.GaugeFunc(component, "fault_dropped", func() float64 { return float64(l.faultDropped) })
}
