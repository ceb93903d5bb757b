package live

import (
	"fmt"
	"net"
	"testing"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/dist"
	"mindgap/internal/telemetry"
	"mindgap/internal/wire"
)

// startSystem boots a dispatcher and workers on loopback, returning the
// registry they report through and a cleanup function.
func startSystem(t *testing.T, workers int, k int, slice time.Duration) (*Dispatcher, []*Worker, *telemetry.Registry, func()) {
	t.Helper()
	d, err := NewDispatcher("127.0.0.1:0", DispatcherConfig{
		Workers: workers, Outstanding: k, Policy: core.LeastOutstanding,
		// Real UDP drops under scheduler pressure on small CI machines;
		// retries make the tests assert protocol behaviour, not kernel
		// buffer luck.
		RetryTimeout: 100 * time.Millisecond, MaxAttempts: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve() }()
	reg := telemetry.NewRegistry()
	d.RegisterMetrics(reg)
	var ws []*Worker
	for i := 0; i < workers; i++ {
		// SpinFloor 1ns: always sleep instead of busy-spinning, so the
		// test is robust on single-core CI machines where spinning workers
		// would starve the UDP sockets.
		w, err := NewWorker(WorkerConfig{
			ID: uint32(i), Dispatcher: d.Addr(), Slice: slice,
			SpinFloor: time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Serve() }()
		w.RegisterMetrics(reg)
		ws = append(ws, w)
	}
	cleanup := func() {
		for _, w := range ws {
			_ = w.Close()
		}
		_ = d.Close()
	}
	return d, ws, reg, cleanup
}

// gauge reads one counter from a fresh snapshot of reg.
func gauge(reg *telemetry.Registry, key string) uint64 {
	return uint64(reg.Snapshot().Gauges[key])
}

func TestLiveEndToEnd(t *testing.T) {
	d, _, reg, cleanup := startSystem(t, 3, 2, 0)
	defer cleanup()
	rep, err := RunClient(ClientConfig{
		Dispatcher: d.Addr(),
		RPS:        10_000,
		Service:    dist.Fixed{D: 20 * time.Microsecond},
		Requests:   2_000,
		Seed:       1,
		Timeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// UDP is lossy under CI scheduling pressure; the protocol claim is
	// that (nearly) everything sent is scheduled, executed, and answered.
	if rep.Received < 1_980 {
		t.Fatalf("received %d/%d responses", rep.Received, rep.Sent)
	}
	if rep.Latency.P50() < 20*time.Microsecond {
		t.Fatalf("p50 %v below service time", rep.Latency.P50())
	}
	// Workers answer the client before notifying the dispatcher, so the
	// dispatcher's completion counter can trail the client by a few
	// in-flight FINISH datagrams; give it a moment to drain.
	var assigned, completed uint64
	deadline := time.Now().Add(2 * time.Second)
	for {
		assigned, completed = gauge(reg, "dispatcher/assigned"), gauge(reg, "dispatcher/completed")
		if completed >= uint64(rep.Received) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if completed < uint64(rep.Received) {
		t.Fatalf("dispatcher completed = %d < received %d", completed, rep.Received)
	}
	if assigned < completed {
		t.Fatalf("dispatcher assigned = %d < completed %d", assigned, completed)
	}
}

// TestLiveClientWaitsOutSparseLoad offers load so sparse that the gaps
// between responses exceed the client's Timeout: that deadline starts at
// the last send, so no response is given up on mid-run.
func TestLiveClientWaitsOutSparseLoad(t *testing.T) {
	d, _, _, cleanup := startSystem(t, 1, 1, 0)
	defer cleanup()
	rep, err := RunClient(ClientConfig{
		Dispatcher: d.Addr(),
		RPS:        5,
		Service:    dist.Fixed{D: 20 * time.Microsecond},
		Requests:   6,
		Seed:       1,
		Timeout:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 6 || rep.Received != 6 {
		t.Fatalf("sent %d received %d, want 6 and 6", rep.Sent, rep.Received)
	}
}

func TestLiveCooperativePreemption(t *testing.T) {
	d, _, reg, cleanup := startSystem(t, 2, 2, 50*time.Microsecond)
	defer cleanup()
	rep, err := RunClient(ClientConfig{
		Dispatcher: d.Addr(),
		RPS:        5_000,
		Service: dist.Bimodal{
			P1: 0.9, D1: 20 * time.Microsecond, D2: 300 * time.Microsecond,
		},
		Requests: 800,
		Seed:     2,
		Timeout:  15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Received < 792 {
		t.Fatalf("received %d/%d", rep.Received, rep.Sent)
	}
	preempts := gauge(reg, "worker0/preempted") + gauge(reg, "worker1/preempted")
	if preempts == 0 {
		t.Fatal("no cooperative preemptions despite 300µs requests at 50µs slice")
	}
	// The dispatcher's counter trails in-flight PREEMPTED datagrams, and
	// with retries enabled it legitimately ignores notifications for
	// assignments it already reaped — so it may stay slightly below the
	// workers' count.
	var dp uint64
	deadline := time.Now().Add(2 * time.Second)
	for {
		dp = gauge(reg, "dispatcher/preempted")
		if dp >= preempts || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dp > preempts {
		t.Fatalf("dispatcher preempted=%d exceeds workers' %d", dp, preempts)
	}
	if float64(dp) < 0.9*float64(preempts) {
		t.Fatalf("dispatcher preempted=%d, workers preempted=%d", dp, preempts)
	}
}

func TestLiveWorkSpreadsAcrossWorkers(t *testing.T) {
	d, ws, reg, cleanup := startSystem(t, 4, 1, 0)
	defer cleanup()
	rep, err := RunClient(ClientConfig{
		Dispatcher: d.Addr(),
		RPS:        40_000,
		Service:    dist.Fixed{D: 50 * time.Microsecond},
		Requests:   2_000,
		Seed:       3,
		Timeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Received < 1_980 {
		t.Fatalf("received %d", rep.Received)
	}
	for i := range ws {
		if n := gauge(reg, fmt.Sprintf("worker%d/completed", i)); n < 100 {
			t.Fatalf("worker %d only completed %d — centralized queue not balancing", i, n)
		}
	}
}

func TestLiveValidation(t *testing.T) {
	if _, err := NewDispatcher("127.0.0.1:0", DispatcherConfig{}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewWorker(WorkerConfig{}); err == nil {
		t.Fatal("worker without dispatcher accepted")
	}
	if _, err := RunClient(ClientConfig{}); err == nil {
		t.Fatal("empty client config accepted")
	}
	if _, err := RunClient(ClientConfig{Dispatcher: &net.UDPAddr{}, RPS: 0}); err == nil {
		t.Fatal("zero rps accepted")
	}
}

func TestAddrCodec(t *testing.T) {
	a := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 54321}
	enc := encodeAddr(nil, a)
	if len(enc) != 6 {
		t.Fatalf("encoded length %d", len(enc))
	}
	got, ok := decodeAddr(enc)
	if !ok || !got.IP.Equal(a.IP) || got.Port != a.Port {
		t.Fatalf("decodeAddr = %v, %v", got, ok)
	}
	if _, ok := decodeAddr(encodeAddr(nil, nil)); ok {
		t.Fatal("nil addr round-tripped as valid")
	}
	if _, ok := decodeAddr([]byte{1, 2}); ok {
		t.Fatal("short buffer decoded")
	}
}

func TestLiveSurvivesMalformedDatagrams(t *testing.T) {
	// Fire garbage at both the dispatcher and a worker mid-run: corrupted
	// packets must be dropped like a NIC would drop bad frames, without
	// disturbing in-flight scheduling.
	d, ws, _, cleanup := startSystem(t, 2, 2, 0)
	defer cleanup()

	attacker, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	garbage := [][]byte{
		{},
		{0x01},
		make([]byte, 7),
		[]byte("this is not a mindgap datagram at all, not even close"),
		func() []byte { // valid header, corrupted checksum
			b := make([]byte, 64)
			b[0] = 1
			b[1] = 2
			return b
		}(),
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, g := range garbage {
				_, _ = attacker.WriteToUDP(g, d.Addr())
				_, _ = attacker.WriteToUDP(g, ws[0].Addr())
			}
			time.Sleep(time.Millisecond)
		}
	}()

	rep, err := RunClient(ClientConfig{
		Dispatcher: d.Addr(),
		RPS:        5_000,
		Service:    dist.Fixed{D: 20 * time.Microsecond},
		Requests:   500,
		Seed:       9,
		Timeout:    10 * time.Second,
	})
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Received < 495 {
		t.Fatalf("received %d/%d under garbage fire", rep.Received, rep.Sent)
	}
}

func TestLiveRetryRecoversFromWorkerDeath(t *testing.T) {
	// Kill one of three workers mid-run. With RetryTimeout set, requests
	// assigned to the dead worker time out and requeue until they land on
	// a live one — at-least-once delivery over lossy UDP.
	d, err := NewDispatcher("127.0.0.1:0", DispatcherConfig{
		Workers: 3, Outstanding: 1, Policy: core.LeastOutstanding,
		RetryTimeout: 30 * time.Millisecond, MaxAttempts: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	go func() { _ = d.Serve() }()
	reg := telemetry.NewRegistry()
	d.RegisterMetrics(reg)
	var ws []*Worker
	for i := 0; i < 3; i++ {
		w, err := NewWorker(WorkerConfig{
			ID: uint32(i), Dispatcher: d.Addr(), SpinFloor: time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Serve() }()
		ws = append(ws, w)
	}
	defer func() {
		for _, w := range ws[1:] {
			_ = w.Close()
		}
	}()
	// Worker 0 dies before any load arrives.
	_ = ws[0].Close()

	rep, err := RunClient(ClientConfig{
		Dispatcher: d.Addr(),
		RPS:        2_000,
		Service:    dist.Fixed{D: 20 * time.Microsecond},
		Requests:   200,
		Seed:       5,
		Timeout:    20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Received != 200 {
		t.Fatalf("received %d/200 despite retries (abandoned=%d)", rep.Received, gauge(reg, "dispatcher/abandoned"))
	}
	if gauge(reg, "dispatcher/retried") == 0 {
		t.Fatal("no retries recorded despite a dead worker")
	}
}

func TestDispatcherDoubleCloseIsSafe(t *testing.T) {
	d, _, _, cleanup := startSystem(t, 1, 1, 0)
	cleanup()
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestLiveMultipleClientsDoNotCollide(t *testing.T) {
	// Two clients use overlapping request IDs (both start at 1); the
	// dispatcher must key its state by (client, id) so responses reach
	// the right client.
	d, _, _, cleanup := startSystem(t, 2, 2, 0)
	defer cleanup()
	type res struct {
		rep *ClientReport
		err error
	}
	ch := make(chan res, 2)
	for c := uint32(1); c <= 2; c++ {
		c := c
		go func() {
			rep, err := RunClient(ClientConfig{
				Dispatcher: d.Addr(),
				RPS:        3_000,
				Service:    dist.Fixed{D: 20 * time.Microsecond},
				Requests:   400,
				Seed:       uint64(c),
				ClientID:   c,
				Timeout:    10 * time.Second,
			})
			ch <- res{rep, err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.rep.Received < 396 {
			t.Fatalf("client received %d/400 with concurrent clients", r.rep.Received)
		}
	}
}

// TestLiveSupersededAttemptFinishIsStale drives the dispatcher with a
// hand-operated worker. The only worker sits on attempt 0 until it times
// out and is re-sent as attempt 1 — to the same worker, so the worker ID
// alone cannot tell them apart — and then acknowledges attempt 0. The
// attempt number echoed in the header flags must make that FINISH stale:
// no credit is released twice, the request is not completed under attempt
// 1's feet, and the client still gets one response.
func TestLiveSupersededAttemptFinishIsStale(t *testing.T) {
	const k = 2
	d, err := NewDispatcher("127.0.0.1:0", DispatcherConfig{
		Workers: 1, Outstanding: k, RetryTimeout: 200 * time.Millisecond, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	go func() { _ = d.Serve() }()
	reg := telemetry.NewRegistry()
	d.RegisterMetrics(reg)
	outstanding := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.lgc.Outstanding(0)
	}

	worker, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	send := func(h wire.Header, to *net.UDPAddr) {
		t.Helper()
		buf, err := wire.EncodeDatagram(nil, &h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := worker.WriteToUDP(buf, to); err != nil {
			t.Fatal(err)
		}
	}
	// recvAssign waits for the ASSIGN of the given attempt (the dispatcher
	// re-sends on every timeout, so earlier ones may repeat).
	recvAssign := func(attempt uint16) (h wire.Header, client *net.UDPAddr) {
		t.Helper()
		buf := make([]byte, maxDatagram)
		for {
			_ = worker.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, _, err := worker.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("waiting for ASSIGN attempt %d: %v", attempt, err)
			}
			payload, err := wire.DecodeDatagram(buf[:n], &h)
			if err != nil || h.Type != wire.MsgAssign || h.Flags != attempt {
				continue
			}
			client, _ = decodeAddr(payload)
			return h, client
		}
	}
	send(wire.Header{Type: wire.MsgHello, WorkerID: 0}, d.Addr())

	type result struct {
		rep *ClientReport
		err error
	}
	got := make(chan result, 1)
	go func() {
		rep, err := RunClient(ClientConfig{
			Dispatcher: d.Addr(), RPS: 1000, Service: dist.Fixed{D: time.Microsecond},
			Requests: 1, Seed: 1, Timeout: 5 * time.Second,
		})
		got <- result{rep, err}
	}()

	first, _ := recvAssign(0)
	second, client := recvAssign(1) // attempt 0 timed out; its credit was reclaimed
	if r := gauge(reg, "dispatcher/retried"); r != 1 || outstanding() != 1 {
		t.Fatalf("after the retry: retried=%d outstanding=%d", r, outstanding())
	}
	ack := wire.Header{Type: wire.MsgFinish, Flags: first.Flags, ReqID: first.ReqID, ClientID: first.ClientID}
	send(ack, d.Addr())
	deadline := time.Now().Add(2 * time.Second)
	for reg.Snapshot().Gauges["dispatcher/stale_acks"] != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("attempt 0's FINISH was not counted stale: %+v", reg.Snapshot().Gauges)
		}
		time.Sleep(time.Millisecond)
	}
	if completed := gauge(reg, "dispatcher/completed"); completed != 0 || outstanding() != 1 {
		t.Fatalf("stale FINISH took effect: completed=%d outstanding=%d", completed, outstanding())
	}

	// Both attempts answer the client; attempt 1's FINISH is the real one.
	resp := wire.Header{Type: wire.MsgResponse, ReqID: second.ReqID, ClientID: second.ClientID}
	send(resp, client)
	send(resp, client)
	ack.Flags = second.Flags
	send(ack, d.Addr())
	for {
		if gauge(reg, "dispatcher/completed") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("attempt 1's FINISH was not accepted")
		}
		time.Sleep(time.Millisecond)
	}
	if out := outstanding(); out != 0 {
		t.Fatalf("outstanding = %d after the only request finished", out)
	}
	r := <-got
	if r.err != nil || r.rep.Received != 1 {
		t.Fatalf("client: %+v, %v; want one response", r.rep, r.err)
	}
	if a := gauge(reg, "dispatcher/abandoned"); a != 0 {
		t.Fatalf("abandoned = %d", a)
	}
}
