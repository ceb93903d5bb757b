// Package nicmodel models the Broadcom Stingray datapath of §3.3: a NIC
// that presents network interfaces — each with a unique MAC address — to
// both the host CPU (one SR-IOV virtual function per worker, §3.4.2) and
// the onboard ARM CPU, steering every frame to the right function by the
// destination MAC in its Ethernet header.
//
// Each function owns a bounded RX descriptor ring; frames addressed to an
// unknown MAC or arriving at a full ring are dropped, exactly like real
// hardware. Delivery between functions crosses the NIC's internal fabric
// with the measured 2.56 µs one-way latency (§3.3).
package nicmodel

import (
	"fmt"
	"time"

	"mindgap/internal/fabric"
	"mindgap/internal/queue"
	"mindgap/internal/sim"
	"mindgap/internal/telemetry"
	"mindgap/internal/wire"
)

// Frame is a steered unit of delivery: a modelled Ethernet frame whose
// payload is the simulation-level message (a request pointer or a
// notification descriptor) rather than marshalled bytes — internal/wire
// defines the real byte layout and supplies the sizes.
type Frame struct {
	Dst, Src wire.MAC
	// Bytes is the on-wire size used for serialization accounting.
	Bytes int
	// Payload is the simulation message.
	Payload any
}

// Config sizes the NIC model.
type Config struct {
	// InternalLatency is the one-way function↔function delivery latency
	// through the NIC (ARM↔host: 2.56 µs, §3.3).
	InternalLatency time.Duration
	// RingCap bounds each function's RX descriptor ring.
	RingCap int
	// LinkFault, when set, is installed on every function's internal
	// delivery link: consulted once per steered frame, it can drop the
	// frame (NIC↔host fabric loss) or add propagation latency (a latency
	// spike). Nil — the only state healthy systems ever see — leaves the
	// links untouched.
	LinkFault func(sim.Time) (drop bool, extra time.Duration)
}

// NIC is the modelled device.
type NIC struct {
	eng *sim.Engine
	cfg Config

	fns []*Function
	// macTable registers every function and steers foreign MACs; byIndex
	// steers MACForIndex addresses (all a model provisions) by the function
	// number they encode, while it is in range, without hashing.
	macTable map[wire.MAC]*Function
	byIndex  [256]*Function

	steered     uint64
	unknownDrop uint64
}

// Function is one NIC interface: the ARM complex's port or a worker's VF.
type Function struct {
	mac  wire.MAC
	name string

	rx *queue.Ring[Frame]
	// deliver is the internal fabric path into this function.
	deliver *fabric.Link
	// onRx fires after a frame lands in the RX ring (consumers poll, but
	// the simulation needs a wake-up edge for idle consumers).
	onRx func()
	// onDeliver fires just before onRx with the frame that landed —
	// observability layers timestamp per-frame arrival here. Nil (the
	// default) costs nothing.
	onDeliver func(Frame)
	// onDrop fires when a frame is lost to a full RX ring.
	onDrop func(Frame)
	// onWireDrop fires when an injected fabric fault loses a frame on
	// this function's delivery link — the only place the lost frame's
	// identity is still known (the link itself counts bytes, not frames).
	onWireDrop func(Frame)

	ringDrops uint64
	received  uint64
}

// New creates a NIC with no functions; AddFunction registers interfaces.
func New(eng *sim.Engine, cfg Config) *NIC {
	if cfg.RingCap <= 0 {
		cfg.RingCap = 256
	}
	return &NIC{eng: eng, cfg: cfg, macTable: make(map[wire.MAC]*Function)}
}

// MACForIndex derives a stable, locally administered MAC for function i.
func MACForIndex(i int) wire.MAC {
	return wire.MAC{0x02, 0x6d, 0x67, byte(i >> 16), byte(i >> 8), byte(i)}
}

// indexOfMAC inverts MACForIndex.
//
//mindgap:noalloc
func indexOfMAC(m wire.MAC) (int, bool) {
	return int(m[3])<<16 | int(m[4])<<8 | int(m[5]), m[0] == 0x02 && m[1] == 0x6d && m[2] == 0x67
}

// AddFunction registers an interface with the given MAC. It panics on a
// duplicate MAC — NIC provisioning is static configuration.
func (n *NIC) AddFunction(name string, mac wire.MAC, ringCap int) *Function {
	if _, dup := n.macTable[mac]; dup {
		panic(fmt.Sprintf("nicmodel: duplicate MAC %v", mac))
	}
	if ringCap <= 0 {
		ringCap = n.cfg.RingCap
	}
	f := &Function{
		mac:  mac,
		name: name,
		rx:   queue.NewRing[Frame](ringCap),
		deliver: fabric.NewLink(n.eng, "nic→"+name, fabric.LinkConfig{
			Latency: n.cfg.InternalLatency,
		}),
	}
	if n.cfg.LinkFault != nil {
		f.deliver.SetFault(n.cfg.LinkFault)
	}
	n.fns = append(n.fns, f)
	n.macTable[mac] = f
	if i, ok := indexOfMAC(mac); ok && i < len(n.byIndex) {
		n.byIndex[i] = f
	}
	return f
}

// Send steers a frame by destination MAC through the NIC. It reports false
// (and counts the drop) when the MAC is unknown or an injected wire fault
// loses the frame. A full target ring is not reported here: the overflow
// happens at delivery time, after Send has returned true, and is counted
// in RingDrops and reported through OnDrop.
//
// The frame rides in its delivery event — payload as the object, source MAC
// and size (16 bits, as on Ethernet) packed into the scalar — so steering
// keeps no in-flight table and allocates nothing.
//
//mindgap:noalloc
func (n *NIC) Send(f Frame) bool {
	var target *Function
	if i, ok := indexOfMAC(f.Dst); ok && i < len(n.byIndex) {
		target = n.byIndex[i] // nil: an in-range index nobody registered
	} else {
		target = n.macTable[f.Dst]
	}
	if target == nil {
		n.unknownDrop++
		return false
	}
	if f.Bytes < 0 || f.Bytes > 0xffff {
		panic("nicmodel: frame size outside [0, 65535] bytes")
	}
	n.steered++
	var src uint64
	for _, b := range f.Src {
		src = src<<8 | uint64(b)
	}
	// A link refuses a message only when an injected wire fault loses it.
	ok := target.deliver.SendT(f.Bytes, nicDeliver, target, f.Payload, src<<16|uint64(f.Bytes))
	if !ok && target.onWireDrop != nil {
		target.onWireDrop(f)
	}
	return ok
}

// nicDeliver fires when a steered frame crosses the NIC-internal fabric
// into its target function: rebuild the frame from the event, then land it
// in the RX ring (or drop it if the ring is full, like hardware).
//
//mindgap:noalloc
func nicDeliver(recv, payload any, arg uint64) {
	target := recv.(*Function)
	f := Frame{Dst: target.mac, Bytes: int(arg & 0xffff), Payload: payload}
	for i, src := 5, arg>>16; i >= 0; i, src = i-1, src>>8 {
		f.Src[i] = byte(src)
	}
	if !target.rx.Push(f) {
		target.ringDrops++
		if target.onDrop != nil {
			target.onDrop(f)
		}
		return
	}
	target.received++
	if target.onDeliver != nil {
		target.onDeliver(f)
	}
	if target.onRx != nil {
		target.onRx()
	}
}

// Steered returns the number of frames accepted for steering.
func (n *NIC) Steered() uint64 { return n.steered }

// UnknownMACDrops returns frames dropped for an unknown destination.
func (n *NIC) UnknownMACDrops() uint64 { return n.unknownDrop }

// Functions returns the registered functions.
func (n *NIC) Functions() []*Function { return n.fns }

// MAC returns the function's address.
func (f *Function) MAC() wire.MAC { return f.mac }

// Name returns the diagnostic name.
func (f *Function) Name() string { return f.name }

// OnRx registers the wake-up callback invoked after each delivery.
func (f *Function) OnRx(fn func()) { f.onRx = fn }

// OnDeliver registers a per-frame delivery callback, invoked after a frame
// lands in the RX ring and before the OnRx wake-up edge.
func (f *Function) OnDeliver(fn func(Frame)) { f.onDeliver = fn }

// OnDrop registers the callback invoked when the RX ring rejects a frame.
func (f *Function) OnDrop(fn func(Frame)) { f.onDrop = fn }

// OnWireDrop registers the callback invoked when an injected fabric fault
// loses a frame destined for this function.
func (f *Function) OnWireDrop(fn func(Frame)) { f.onWireDrop = fn }

// Poll removes the oldest frame from the RX ring.
//
//mindgap:noalloc
func (f *Function) Poll() (Frame, bool) { return f.rx.Pop() }

// Pending returns the RX ring occupancy.
//
//mindgap:noalloc
func (f *Function) Pending() int { return f.rx.Len() }

// Each visits the queued frames, oldest first, without removing them.
func (f *Function) Each(fn func(Frame)) { f.rx.Do(fn) }

// RingDrops returns frames lost to a full RX ring.
func (f *Function) RingDrops() uint64 { return f.ringDrops }

// Received returns frames successfully enqueued to the RX ring.
func (f *Function) Received() uint64 { return f.received }

// RegisterTelemetry exposes the device's steered-frame count plus, for
// every function registered at call time, its internal delivery link's
// delivered count (component "fabric/nic→<name>") — the per-function view
// behind the paper's NIC↔host communication accounting (§3.3).
func (n *NIC) RegisterTelemetry(reg *telemetry.Registry) {
	reg.GaugeFunc("nic", "steered", func() float64 { return float64(n.steered) })
	for _, f := range n.fns {
		f.deliver.RegisterTelemetry(reg, "fabric/nic→"+f.name)
	}
}
