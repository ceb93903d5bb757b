package nicmodel

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"mindgap/internal/fabric"
	"mindgap/internal/sim"
	"mindgap/internal/wire"
)

func newNIC(eng *sim.Engine) *NIC {
	return New(eng, Config{InternalLatency: 2560 * time.Nanosecond, RingCap: 4})
}

func TestSteeringByMAC(t *testing.T) {
	eng := sim.New()
	nic := newNIC(eng)
	a := nic.AddFunction("arm", MACForIndex(0), 0)
	b := nic.AddFunction("w0", MACForIndex(1), 0)

	if !nic.Send(Frame{Dst: b.MAC(), Src: a.MAC(), Bytes: 64, Payload: "hello"}) {
		t.Fatal("send rejected")
	}
	eng.Run()
	if eng.Now() != sim.Time(2560) {
		t.Fatalf("delivery at %v, want 2.56µs", eng.Now())
	}
	if a.Pending() != 0 || b.Pending() != 1 {
		t.Fatalf("pending: arm=%d w0=%d", a.Pending(), b.Pending())
	}
	f, ok := b.Poll()
	if !ok || f.Payload != "hello" || f.Src != a.MAC() {
		t.Fatalf("polled %+v, %v", f, ok)
	}
	if nic.Steered() != 1 {
		t.Fatalf("Steered = %d", nic.Steered())
	}
}

func TestUnknownMACDropped(t *testing.T) {
	eng := sim.New()
	nic := newNIC(eng)
	nic.AddFunction("arm", MACForIndex(0), 0)
	if nic.Send(Frame{Dst: wire.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, Bytes: 64}) {
		t.Fatal("unknown MAC accepted")
	}
	if nic.UnknownMACDrops() != 1 {
		t.Fatalf("UnknownMACDrops = %d", nic.UnknownMACDrops())
	}
}

// TestSteeringDenseAndForeignMACs: MACForIndex addresses steer through the
// dense index and any other registered MAC through the table, to the same
// effect; an unregistered address of either shape — a foreign MAC, an
// index inside the dense range nobody registered, one beyond it — is an
// unknown-MAC drop that schedules nothing.
func TestSteeringDenseAndForeignMACs(t *testing.T) {
	eng := sim.New()
	nic := newNIC(eng)
	maxDenseIndex := len(nic.byIndex)
	foreign := wire.MAC{0x00, 0x1b, 0x21, 0xaa, 0xbb, 0xcc}
	fns := map[wire.MAC]*Function{
		MACForIndex(0):                 nic.AddFunction("arm", MACForIndex(0), 0),
		MACForIndex(3):                 nic.AddFunction("w3", MACForIndex(3), 0), // leaves 1 and 2 unregistered
		MACForIndex(maxDenseIndex + 5): nic.AddFunction("far", MACForIndex(maxDenseIndex+5), 0),
		foreign:                        nic.AddFunction("foreign", foreign, 0),
	}
	for mac, fn := range fns {
		if !nic.Send(Frame{Dst: mac, Src: foreign, Bytes: 64, Payload: fn.Name()}) {
			t.Fatalf("send to %s (%v) rejected", fn.Name(), mac)
		}
	}
	unknown := []wire.MAC{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		MACForIndex(2),
		MACForIndex(4),
		MACForIndex(maxDenseIndex + 6),
		{0x02, 0x6d, 0x66, 0, 0, 3}, // w3's index under another prefix
	}
	for _, mac := range unknown {
		if nic.Send(Frame{Dst: mac, Bytes: 64}) {
			t.Fatalf("unknown MAC %v accepted", mac)
		}
	}
	if got := nic.UnknownMACDrops(); got != uint64(len(unknown)) {
		t.Fatalf("UnknownMACDrops = %d, want %d", got, len(unknown))
	}
	if eng.Pending() != len(fns) {
		t.Fatalf("%d events pending, want one per steered frame (%d)", eng.Pending(), len(fns))
	}
	eng.Run()
	for mac, fn := range fns {
		f, ok := fn.Poll()
		if !ok || f.Payload != fn.Name() || f.Dst != mac || fn.Pending() != 0 {
			t.Fatalf("%s polled %+v, %v (pending %d)", fn.Name(), f, ok, fn.Pending())
		}
	}
}

// TestFrameArrivesIntact: a frame is rebuilt from its delivery event, so
// every field must survive the trip to each place a frame surfaces —
// OnDeliver, Poll, OnDrop (ring overflow) and OnWireDrop — for a function's
// MAC and a foreign one as source, at both ends of the size range and with
// a nil payload.
func TestFrameArrivesIntact(t *testing.T) {
	eng := sim.New()
	lose := false
	nic := New(eng, Config{InternalLatency: 2560 * time.Nanosecond, RingCap: 3,
		LinkFault: func(sim.Time) (bool, time.Duration) { return lose, 0 }})
	src := nic.AddFunction("src", MACForIndex(0), 0)
	dst := nic.AddFunction("dst", MACForIndex(1), 0)
	payload := &struct{ n int }{7}
	frames := []Frame{
		{Dst: dst.MAC(), Src: src.MAC(), Bytes: 64, Payload: payload},
		{Dst: dst.MAC(), Src: wire.MAC{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa}, Bytes: 0xffff, Payload: "edge"},
		{Dst: dst.MAC(), Bytes: 0},
		{Dst: dst.MAC(), Src: src.MAC(), Bytes: 1500, Payload: 4}, // overflows the ring
	}
	var delivered, dropped, wireDropped []Frame
	dst.OnDeliver(func(f Frame) { delivered = append(delivered, f) })
	dst.OnDrop(func(f Frame) { dropped = append(dropped, f) })
	dst.OnWireDrop(func(f Frame) { wireDropped = append(wireDropped, f) })
	for _, f := range frames {
		nic.Send(f)
	}
	lose = true
	if nic.Send(frames[1]) {
		t.Fatal("send accepted while the fabric loses every frame")
	}
	eng.Run()
	if !slices.Equal(delivered, frames[:3]) {
		t.Fatalf("OnDeliver saw %+v, want %+v", delivered, frames[:3])
	}
	if !slices.Equal(dropped, frames[3:]) {
		t.Fatalf("OnDrop saw %+v, want %+v", dropped, frames[3:])
	}
	if !slices.Equal(wireDropped, frames[1:2]) {
		t.Fatalf("OnWireDrop saw %+v, want %+v", wireDropped, frames[1:2])
	}
	for i, want := range frames[:3] {
		if got, ok := dst.Poll(); !ok || got != want {
			t.Fatalf("Poll %d = %+v, %v; want %+v", i, got, ok, want)
		}
	}
}

// TestOversizeFramePanics: the size rides in 16 bits of the delivery event;
// a frame no Ethernet port could carry is a model bug, not a truncation.
func TestOversizeFramePanics(t *testing.T) {
	for _, bytes := range []int{-1, 0x10000} {
		eng := sim.New()
		nic := newNIC(eng)
		dst := nic.AddFunction("dst", MACForIndex(0), 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d-byte frame accepted", bytes)
				}
			}()
			nic.Send(Frame{Dst: dst.MAC(), Bytes: bytes})
		}()
		if eng.Pending() != 0 {
			t.Errorf("%d-byte frame left an event pending", bytes)
		}
	}
}

func TestRingOverflowDrops(t *testing.T) {
	eng := sim.New()
	nic := newNIC(eng)
	src := nic.AddFunction("src", MACForIndex(0), 0)
	dst := nic.AddFunction("dst", MACForIndex(1), 2) // tiny ring
	for i := 0; i < 5; i++ {
		nic.Send(Frame{Dst: dst.MAC(), Src: src.MAC(), Bytes: 64, Payload: i})
	}
	eng.Run()
	if dst.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (ring cap)", dst.Pending())
	}
	if dst.RingDrops() != 3 {
		t.Fatalf("RingDrops = %d, want 3", dst.RingDrops())
	}
	if dst.Received() != 2 {
		t.Fatalf("Received = %d", dst.Received())
	}
	// Drain and verify FIFO order of survivors.
	f1, _ := dst.Poll()
	f2, _ := dst.Poll()
	if f1.Payload != 0 || f2.Payload != 1 {
		t.Fatalf("ring order: %v %v", f1.Payload, f2.Payload)
	}
	if _, ok := dst.Poll(); ok {
		t.Fatal("poll on empty ring succeeded")
	}
}

func TestOnRxWakeup(t *testing.T) {
	eng := sim.New()
	nic := newNIC(eng)
	src := nic.AddFunction("src", MACForIndex(0), 0)
	dst := nic.AddFunction("dst", MACForIndex(1), 0)
	woke := 0
	dst.OnRx(func() {
		woke++
		if dst.Pending() == 0 {
			t.Fatal("OnRx fired before frame landed in ring")
		}
	})
	nic.Send(Frame{Dst: dst.MAC(), Src: src.MAC(), Bytes: 64})
	nic.Send(Frame{Dst: dst.MAC(), Src: src.MAC(), Bytes: 64})
	eng.Run()
	if woke != 2 {
		t.Fatalf("OnRx fired %d times, want 2", woke)
	}
}

func TestDuplicateMACPanics(t *testing.T) {
	eng := sim.New()
	nic := newNIC(eng)
	nic.AddFunction("a", MACForIndex(7), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate MAC accepted")
		}
	}()
	nic.AddFunction("b", MACForIndex(7), 0)
}

func TestMACForIndexUniqueAndLocal(t *testing.T) {
	seen := map[wire.MAC]bool{}
	for i := 0; i < 1000; i++ {
		m := MACForIndex(i)
		if seen[m] {
			t.Fatalf("duplicate MAC at index %d", i)
		}
		seen[m] = true
		if m[0]&0x02 == 0 {
			t.Fatal("MAC not locally administered")
		}
	}
}

func TestPerFunctionFIFOUnderLoad(t *testing.T) {
	eng := sim.New()
	nic := New(eng, Config{InternalLatency: time.Microsecond, RingCap: 1024})
	src := nic.AddFunction("src", MACForIndex(0), 0)
	dst := nic.AddFunction("dst", MACForIndex(1), 0)
	const n = 500
	for i := 0; i < n; i++ {
		nic.Send(Frame{Dst: dst.MAC(), Src: src.MAC(), Bytes: 64 + i%256, Payload: i})
	}
	eng.Run()
	for i := 0; i < n; i++ {
		f, ok := dst.Poll()
		if !ok || f.Payload != i {
			t.Fatalf("frame %d out of order: %v %v", i, f.Payload, ok)
		}
	}
	if len(nic.Functions()) != 2 {
		t.Fatalf("Functions() = %d", len(nic.Functions()))
	}
	if dst.Name() != "dst" {
		t.Fatalf("Name = %q", dst.Name())
	}
}

// TestTxChainEnteredAtDispatch: the offload's dispatch path — a
// shared-memory ring, the TX core's fixed cost, then the NIC hop to a VF —
// entered once at dispatch through Link.Enter and NIC.SendAt, lands every
// frame at the same instant and in the same order as the three-hop form
// (ring event, TX stage, NIC send at the stage's exit), with same-instant
// dispatch bursts and a freeze window on the TX core; and it costs one
// event per frame where the three-hop form costs three.
func TestTxChainEnteredAtDispatch(t *testing.T) {
	const shm, txCost = 250 * time.Nanosecond, 700 * time.Nanosecond
	// The TX core is frozen over [5 µs, 8 µs).
	freeze := func(at sim.Time, work time.Duration) time.Duration {
		if end := sim.Time(8000); at < end && at.Add(work) > 5000 {
			return work + end.Sub(max(at, 5000))
		}
		return work
	}
	type landing struct {
		vf, id int
		at     sim.Time
	}
	run := func(seed uint64, fused bool) ([]landing, uint64) {
		rng := rand.New(rand.NewPCG(seed, 0x7478))
		eng := sim.New()
		nic := New(eng, Config{InternalLatency: 2560 * time.Nanosecond, RingCap: 1024})
		arm := nic.AddFunction("arm", MACForIndex(0), 0)
		var log []landing
		var vfs []*Function
		for i := 1; i <= 3; i++ {
			vf := nic.AddFunction("vf", MACForIndex(i), 0)
			vf.OnDeliver(func(f Frame) { log = append(log, landing{i, f.Payload.(int), eng.Now()}) })
			vfs = append(vfs, vf)
		}
		frame := func(id int) Frame {
			return Frame{Dst: vfs[id%3].MAC(), Src: arm.MAC(), Bytes: 64, Payload: id}
		}
		var dispatch func(id int)
		if fused {
			tx := fabric.NewLink(eng, "arm-tx", fabric.LinkConfig{Cost: txCost})
			tx.SetStretch(freeze)
			dispatch = func(id int) {
				out, _ := tx.Enter(eng.Now().Add(shm), 0)
				nic.SendAt(out, frame(id))
			}
		} else {
			ring := fabric.NewLink(eng, "shm q→tx", fabric.LinkConfig{Latency: shm})
			tx := fabric.NewStage[int](eng, "arm-tx", 0, fabric.FixedCost[int](txCost), func(id int) { nic.Send(frame(id)) })
			tx.SetStretch(freeze)
			dispatch = func(id int) { ring.Send(0, func() { tx.Submit(id) }) }
		}
		id := 0
		for at := sim.Time(0); at < 20000; at += sim.Time(rng.IntN(1500)) {
			burst := 1 + rng.IntN(3)
			eng.At(at, func() {
				for k := 0; k < burst; k++ {
					dispatch(id)
					id++
				}
			})
		}
		eng.Run()
		return log, eng.Executed()
	}
	for seed := uint64(0); seed < 50; seed++ {
		got, events := run(seed, true)
		want, hopEvents := run(seed, false)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: landings diverge\n got %v\nwant %v", seed, got, want)
		}
		frames := uint64(len(got))
		if hopEvents-events != 2*frames {
			t.Fatalf("seed %d: %d frames cost %d events fused, %d hop by hop; want 2 fewer per frame", seed, frames, events, hopEvents)
		}
	}
}

// TestDrainToMatchesEventPath: frames bursting into a function whose
// consumer is a FIFO pipe reach the consumer at the same instants and in
// the same order whether DrainTo enters them into the pipe at their landing
// instant or the consumer polls each landed frame and enters it then — with
// same-instant bursts and a consumer frozen over a window — and DrainTo
// saves the landing event of every frame. Under a LinkFault both take the
// event path: latency spikes reorder landings, and wire drops still reach
// OnWireDrop.
func TestDrainToMatchesEventPath(t *testing.T) {
	// The consumer is frozen over [6 µs, 9 µs).
	freeze := func(at sim.Time, work time.Duration) time.Duration {
		if end := sim.Time(9000); at < end && at.Add(work) > 6000 {
			return work + end.Sub(max(at, 6000))
		}
		return work
	}
	// Frames sent in [4 µs, 5 µs) are lost on the wire; those sent in
	// [10 µs, 12 µs) take 3 µs longer, so later frames overtake them.
	fault := func(at sim.Time) (bool, time.Duration) {
		switch {
		case at >= 4000 && at < 5000:
			return true, 0
		case at >= 10000 && at < 12000:
			return false, 3 * time.Microsecond
		}
		return false, 0
	}
	type exit struct {
		id int
		at sim.Time
	}
	var sent int
	run := func(seed uint64, drained, faulty bool) (exits []exit, lost []int, events uint64) {
		rng := rand.New(rand.NewPCG(seed, 0x6472))
		eng := sim.New()
		cfg := Config{InternalLatency: 2560 * time.Nanosecond}
		if faulty {
			cfg.LinkFault = fault
		}
		nic := New(eng, cfg)
		arm := nic.AddFunction("arm", MACForIndex(0), 0)
		arm.OnWireDrop(func(f Frame) { lost = append(lost, f.Payload.(int)) })
		pipe := fabric.NewLink(eng, "arm-rx", fabric.LinkConfig{Cost: 550 * time.Nanosecond, Latency: 200 * time.Nanosecond})
		pipe.SetStretch(freeze)
		consume := func(_, obj any, _ uint64) { exits = append(exits, exit{obj.(int), eng.Now()}) }
		if drained {
			arm.DrainTo(pipe, consume, nil)
		} else {
			arm.OnRx(func() {
				if f, ok := arm.Poll(); ok {
					pipe.SendT(0, consume, nil, f.Payload, 0)
				}
			})
		}
		id := 0
		for at := sim.Time(0); at < 16000; at += sim.Time(rng.IntN(900)) {
			burst := 1 + rng.IntN(3)
			eng.At(at, func() {
				for k := 0; k < burst; k++ {
					nic.Send(Frame{Dst: arm.MAC(), Src: MACForIndex(1 + k), Bytes: 64, Payload: id})
					id++
				}
			})
		}
		eng.Run()
		sent = id
		if arm.Pending() != 0 || arm.RingDrops() != 0 {
			t.Fatalf("seed %d: a drained ring holds %d frames, dropped %d", seed, arm.Pending(), arm.RingDrops())
		}
		return exits, lost, eng.Executed()
	}
	reordered := false
	for seed := uint64(0); seed < 40; seed++ {
		got, _, events := run(seed, true, false)
		want, _, polledEvents := run(seed, false, false)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: drained exits diverge\n got %v\nwant %v", seed, got, want)
		}
		if frames := uint64(len(got)); polledEvents-events != frames {
			t.Fatalf("seed %d: %d frames cost %d events drained, %d polled; want one fewer per frame", seed, frames, events, polledEvents)
		}

		got, gotLost, events := run(seed, true, true)
		want, wantLost, polledEvents := run(seed, false, true)
		if !slices.Equal(got, want) || !slices.Equal(gotLost, wantLost) || events != polledEvents {
			t.Fatalf("seed %d under faults: drained exits %v, lost %v, %d events\nwant %v, lost %v, %d events",
				seed, got, gotLost, events, want, wantLost, polledEvents)
		}
		if len(gotLost) == 0 || len(got)+len(gotLost) != sent {
			t.Fatalf("seed %d: %d delivered + %d lost of %d frames sent", seed, len(got), len(gotLost), sent)
		}
		for i := 1; i < len(got); i++ {
			reordered = reordered || got[i].id < got[i-1].id
		}
	}
	if !reordered {
		t.Fatal("no latency spike reordered a frame: the fault case tests nothing")
	}
}
