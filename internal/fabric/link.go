// Package fabric models the communication substrates connecting the
// simulated components — Ethernet wires, the NIC-internal path between the
// SmartNIC ARM complex and host cores (2.56 µs one way, §3.3), host
// cache-line channels, the coherent CXL window of the §5 ideal NIC — and
// the FIFO cores in front of them.
//
// All of them are one abstraction, Link: a FIFO server that holds each
// message for a fixed cost plus its serialization time, then a propagation
// latency. A FIFO server's exit is known when an item enters it —
// max(enter, previous exit) + cost — so a link files one engine event per
// message, at the far end, and a chain of links files one too: Enter
// returns where a message leaves a link without filing anything, and
// SendAtT enters the next link there.
package fabric

import (
	"fmt"
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
	// Cost is a fixed per-message service time at the link's server (an
	// ARM core's per-request work in front of its shared-memory ring).
	Cost time.Duration
	// Front marks a link only the client feeds, in transmit order, so it
	// may be entered before now, its exits exact FIFO arithmetic still.
	Front bool
}

// server is the FIFO arithmetic every serial server in fabric shares.
// Items enter in nondecreasing instant order; stretch, when set, dilates an
// item's work through the fault timeline from the instant it starts (nil —
// the only state healthy systems see — leaves work untouched).
type server struct {
	free, enter sim.Time // the last item's exit and entry
	stretch     func(sim.Time, time.Duration) time.Duration
}

// pass admits an item entering at with the given work and returns its exit.
//
//mindgap:noalloc
func (s *server) pass(at sim.Time, work time.Duration) sim.Time {
	if at < s.enter {
		panic(fmt.Sprintf("fabric: FIFO entry at %v precedes the previous entry at %v", at, s.enter))
	}
	s.enter = at
	start := max(at, s.free)
	if s.stretch != nil {
		work = s.stretch(start, work)
	}
	s.free = start.Add(work)
	return s.free
}

// SetStretch installs the fault-timeline dilation (crash windows freeze
// the core, slowdown windows dilate it). Install before the simulation
// starts; fabric carries the raw func type so it does not depend on the
// faults package.
func (s *server) SetStretch(f func(sim.Time, time.Duration) time.Duration) { s.stretch = f }

// Link is a point-to-point FIFO pipe. Not safe for concurrent use — it
// lives inside a single-threaded simulation.
//
// A link with a Cost or a bandwidth has a server, which messages leave in
// entry order. Deliveries keep that order except under an injected latency
// fault, whose extra latency is per message: a message sent just after a
// delay window closes can overtake those sent inside it. A link with
// neither has no server and may be entered at any instant from now on.
//
// An observed link (RegisterGauge) notes each accepted message's instants,
// and a gauge counts at read time the messages past one of them. It files
// the same events, so attaching a registry changes neither a delivery nor
// Engine.Executed().
type Link struct {
	eng  *sim.Engine
	cfg  LinkConfig
	name string
	server

	// fault, when set, is consulted once per message at its entry instant:
	// a true drop loses the message on the wire, and extra adds propagation
	// latency (a fabric latency spike). Nil on healthy systems.
	fault func(sim.Time) (drop bool, extra time.Duration)

	// Observed-link state: accepted counts every message that entered, and
	// flight holds the instants of those that may still be in flight, in
	// no particular order.
	observed bool
	accepted uint64
	flight   [][3]sim.Time
}

// Point indexes a message's instants on an observed link.
type Point uint8

// A message enters the link's server, is served, and is delivered.
const (
	Entered Point = iota
	Served
	Delivered
)

// NewLink creates a link on the engine. name appears in diagnostics only.
func NewLink(eng *sim.Engine, name string, cfg LinkConfig) *Link {
	return &Link{eng: eng, cfg: cfg, name: name}
}

// Send enqueues a message of the given wire size; deliver runs at the
// receiver once service and propagation complete. It reports false when an
// injected wire fault loses the message. The closure form allocates and
// serves tests; models use SendT.
func (l *Link) Send(bytes int, deliver func()) bool {
	return l.SendT(bytes, callClosure, deliver, nil, 0)
}

// callClosure adapts the closure delivery onto the typed path.
func callClosure(recv, _ any, _ uint64) { recv.(func())() }

// SendT is the typed, zero-alloc Send: fn(recv, obj, arg) runs at the
// receiver, one engine event.
//
//mindgap:noalloc
func (l *Link) SendT(bytes int, fn sim.EventFunc, recv, obj any, arg uint64) bool {
	return l.SendAtT(l.eng.Now(), bytes, fn, recv, obj, arg)
}

// SendAtT is SendT for a message entering at the instant at >= now — an
// earlier hop's exit — so a chain of hops files one event, at its end.
//
//mindgap:noalloc
func (l *Link) SendAtT(at sim.Time, bytes int, fn sim.EventFunc, recv, obj any, arg uint64) bool {
	deliver, ok := l.Enter(at, bytes)
	if ok {
		l.eng.AtE(deliver, fn, recv, obj, arg)
	}
	return ok
}

// Enter admits a message at the instant at >= now (any instant in entry
// order on a Front link) and returns its delivery instant, filing no
// event. ok is false when an injected wire fault loses the message, which
// then occupies no server time.
//
//mindgap:noalloc
func (l *Link) Enter(at sim.Time, bytes int) (deliver sim.Time, ok bool) {
	if at < l.eng.Now() && !l.cfg.Front {
		panic(fmt.Sprintf("fabric: %s entered at %v, before now %v", l.name, at, l.eng.Now()))
	}
	latency := l.cfg.Latency
	if l.fault != nil {
		drop, extra := l.fault(at)
		if drop {
			return 0, false
		}
		latency += extra
	}
	out := at
	if l.cfg.Cost > 0 || l.cfg.BandwidthBps > 0 {
		// A busy server stalls the message (port serialization, §3.3; an
		// ARM core still on an earlier request).
		out = l.pass(at, l.cfg.Cost+l.serialization(bytes))
	}
	deliver = out.Add(latency)
	if l.observed {
		l.observe([3]sim.Time{at, out, deliver})
	}
	return deliver, true
}

// observe records an accepted message on an observed link. A full list
// forgets the deliveries already past and, if over half is still in
// flight, moves to twice that many slots: amortized O(1) per send, at
// most twice the peak in flight kept, and allocating while that peak
// grows, so observe is not noalloc.
func (l *Link) observe(h [3]sim.Time) {
	l.accepted++
	if len(l.flight) == cap(l.flight) {
		live := l.flight[:0]
		for _, f := range l.flight {
			if f[Delivered] > l.eng.Now() {
				live = append(live, f)
			}
		}
		if 2*len(live) > cap(l.flight) {
			live = append(make([][3]sim.Time, 0, 2*len(live)), live...)
		}
		l.flight = live
	}
	l.flight = append(l.flight, h)
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

// RegisterTelemetry is RegisterGauge(reg, component, "delivered", Delivered).
func (l *Link) RegisterTelemetry(reg *telemetry.Registry, component string) {
	l.RegisterGauge(reg, component, "delivered", Delivered)
}

// RegisterGauge exposes on reg, as component/name, how many accepted
// messages have passed point p by now; one due exactly now counts, as it
// has once RunUntil returns. Attach before the simulation starts, as
// messages already in flight are not counted.
func (l *Link) RegisterGauge(reg *telemetry.Registry, component, name string, p Point) {
	l.observed = true
	reg.GaugeFunc(component, name, func() float64 {
		ahead := 0
		for _, f := range l.flight {
			if f[p] > l.eng.Now() {
				ahead++
			}
		}
		return float64(l.accepted - uint64(ahead))
	})
}
