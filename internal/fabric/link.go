// Package fabric models the communication substrates connecting the
// simulated components: Ethernet wires, the NIC-internal path between the
// SmartNIC ARM complex and host cores (2.56 µs one way, §3.3), host
// cache-line channels, and the coherent CXL window of the §5 ideal NIC.
//
// All substrates share one abstraction, Link: a point-to-point pipe with a
// propagation latency and an optional serialization bandwidth.
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

// Link is a point-to-point message pipe. Not safe for concurrent use — it
// lives inside a single-threaded simulation.
//
// Departures are in send order: the serializer transmits one message at a
// time. Deliveries are too, except under an injected latency fault, which
// adds its extra latency per message: a message sent just after a delay
// window closes can overtake those sent inside it.
//
// A hop is one engine event when the link does not serialize, two otherwise
// (departure, then delivery): every link files the receiver's own event
// (sim.AtE, or sim.AtRelayE through the departure) at send time. An observed
// link (RegisterTelemetry) files the same events; it only counts accepted
// messages and notes each one's delivery instant, which the gauge counts at
// read time. Attaching a registry therefore changes neither a delivery nor
// Engine.Executed().
type Link struct {
	eng  *sim.Engine
	cfg  LinkConfig
	name string

	lastDeparture sim.Time

	// fault, when set, is consulted once per message at send time: a true
	// drop loses the message on the wire, and extra adds propagation
	// latency (a fabric latency spike). Nil — the only state healthy
	// systems ever see — leaves Send untouched.
	fault func(sim.Time) (drop bool, extra time.Duration)

	// Observed-link state (a plain link keeps none): accepted counts every
	// message sent, and flight holds the delivery instants of those that
	// may still be in flight, in no particular order.
	observed bool
	accepted uint64
	flight   []sim.Time
}

// NewLink creates a link on the engine. name appears in diagnostics only.
func NewLink(eng *sim.Engine, name string, cfg LinkConfig) *Link {
	return &Link{eng: eng, cfg: cfg, name: name}
}

// Name returns the diagnostic name.
func (l *Link) Name() string { return l.name }

// Send enqueues a message of the given wire size; deliver runs at the
// receiver once serialization and propagation complete. It reports false
// when an injected wire fault loses the message. Deliveries keep Send order
// unless a latency fault reorders them (see Link). The closure form
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
			return false
		}
		latency += extra
	}
	depart := now
	if l.lastDeparture > depart {
		// The transmitter is still serializing an earlier message: this
		// one stalls behind it (port serialization, §3.3).
		depart = l.lastDeparture
	}
	depart = depart.Add(l.serialization(bytes))
	l.lastDeparture = depart
	deliverAt := depart.Add(latency)

	if l.observed {
		l.observe(now, deliverAt)
	}
	if l.cfg.BandwidthBps <= 0 {
		l.eng.AtE(deliverAt, fn, recv, obj, arg)
	} else {
		l.eng.AtRelayE(depart, deliverAt, fn, recv, obj, arg)
	}
	return true
}

// observe records an accepted message on an observed link. A full list
// forgets the deliveries already past and, if over half is still in
// flight, moves to twice that many slots: amortized O(1) per send, at
// most twice the peak in flight kept, and allocating while that peak
// grows, so observe is not noalloc.
func (l *Link) observe(now, deliver sim.Time) {
	l.accepted++
	if len(l.flight) == cap(l.flight) {
		live := l.flight[:0]
		for _, at := range l.flight {
			if at > now {
				live = append(live, at)
			}
		}
		if 2*len(live) > cap(l.flight) {
			live = append(make([]sim.Time, 0, 2*len(live)), live...)
		}
		l.flight = live
	}
	l.flight = append(l.flight, deliver)
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

// RegisterTelemetry exposes the link's delivered-message count on reg
// under the given component label. A message due exactly now counts as
// delivered, as it is once RunUntil returns (it fires every event at its
// bound). Attach before the simulation starts, as messages already in
// flight are not counted.
func (l *Link) RegisterTelemetry(reg *telemetry.Registry, component string) {
	l.observed = true
	reg.GaugeFunc(component, "delivered", func() float64 {
		now, undelivered := l.eng.Now(), 0
		for _, at := range l.flight {
			if at > now {
				undelivered++
			}
		}
		return float64(l.accepted - uint64(undelivered))
	})
}
