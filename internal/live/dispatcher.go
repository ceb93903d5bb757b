// Package live is a real-socket implementation of the Shinjuku-Offload
// protocol: the same core.Logic scheduler and core.Recovery loss-recovery
// machine that the simulator evaluates, driven by UDP datagrams (§3.4.2 —
// the dispatcher and workers communicate by sending UDP packets) encoded
// with internal/wire.
//
// It exists to demonstrate that the scheduling library is an executable
// artifact, not just a model: cmd/mindgap-live runs each role in its own
// process, or all three in one over loopback. Counters are read through a
// telemetry registry (RegisterMetrics) only.
//
// Fidelity notes (documented deviations from the SmartNIC prototype):
//   - The "NIC" is the kernel UDP stack; MAC steering becomes UDP
//     addressing.
//   - Preemption is cooperative: workers execute fake work in slice-sized
//     chunks and return the remainder, because a Go process cannot take an
//     APIC timer interrupt. The scheduler-visible behaviour (PREEMPTED
//     notifications, tail-of-queue requeue, resume on any worker) is
//     identical.
package live

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mindgap/internal/core"
	"mindgap/internal/sim"
	"mindgap/internal/task"
	"mindgap/internal/wire"
)

// maxDatagram bounds receive buffers; all protocol messages are far
// smaller.
const maxDatagram = 2048

// DispatcherConfig configures a live dispatcher.
type DispatcherConfig struct {
	// Workers is the number of workers that will register; scheduling
	// starts once all have said hello.
	Workers int
	// Outstanding is the per-worker credit limit (queuing optimization).
	Outstanding int
	// Policy selects the worker-selection policy.
	Policy core.Policy
	// RetryTimeout, when positive, enables at-least-once delivery: an
	// assignment not acknowledged (FINISH or PREEMPTED) within this window
	// is presumed lost — a dropped datagram or a dead worker — its credit is
	// reclaimed and a fresh attempt of the request enters the tail of the
	// central queue. Duplicate responses caused by false timeouts are
	// deduplicated by request ID at the client. Zero disables retries (the
	// simulator's fabric is lossless; real UDP is not).
	RetryTimeout time.Duration
	// MaxAttempts caps the attempts a request gets under RetryTimeout
	// (default 5): the expiry of the last one drops the request. A
	// preemption continues an attempt; only an expiry starts the next.
	MaxAttempts int
}

// Dispatcher is the live scheduler process: it owns the centralized queue
// and speaks the wire protocol with clients and workers.
type Dispatcher struct {
	cfg  DispatcherConfig
	conn *net.UDPConn
	lgc  *core.Logic

	mu         sync.Mutex
	workerAddr []*net.UDPAddr
	registered int
	pending    []*task.Request // buffered until all workers register
	clients    map[reqKey]*net.UDPAddr
	rec        *core.Recovery[reqKey, uint16]
	flights    []flight // by Recovery slot
	started    time.Time

	assigned   atomic.Uint64
	completed  atomic.Uint64
	preempted  atomic.Uint64
	retried    atomic.Uint64
	abandoned  atomic.Uint64
	stale      atomic.Uint64
	closed     atomic.Bool
	quit       chan struct{}
	loopDone   chan struct{}
	sendBuf    []byte
	recvBuf    []byte
	payloadBuf []byte
}

// NewDispatcher binds a UDP socket on addr (e.g. "127.0.0.1:0") and
// prepares the scheduler.
func NewDispatcher(addr string, cfg DispatcherConfig) (*Dispatcher, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("live: dispatcher needs at least one worker")
	}
	if cfg.Outstanding <= 0 {
		cfg.Outstanding = 1
	}
	udpAddr, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("live: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp4", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("live: listen: %w", err)
	}
	// A saturating open-loop client plus per-request FINISH notifications
	// can overrun the default socket buffer; ask for a large one (the
	// kernel clamps to its limits).
	_ = conn.SetReadBuffer(4 << 20)
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	d := &Dispatcher{
		cfg:        cfg,
		conn:       conn,
		lgc:        core.NewLogic(cfg.Workers, cfg.Outstanding, cfg.Policy),
		workerAddr: make([]*net.UDPAddr, cfg.Workers),
		clients:    make(map[reqKey]*net.UDPAddr),
		rec:        core.NewRecovery[reqKey, uint16](cfg.MaxAttempts-1, false),
		quit:       make(chan struct{}),
		loopDone:   make(chan struct{}),
		sendBuf:    make([]byte, 0, maxDatagram),
		recvBuf:    make([]byte, maxDatagram),
		payloadBuf: make([]byte, 0, 64),
		started:    time.Now(),
	}
	if cfg.RetryTimeout > 0 {
		go d.reaper()
	}
	return d, nil
}

// reqKey identifies a request globally: IDs are only unique per client.
type reqKey struct {
	client uint32
	id     uint64
}

func keyOfHeader(h *wire.Header) reqKey { return reqKey{client: h.ClientID, id: h.ReqID} }
func keyOfReq(r *task.Request) reqKey   { return reqKey{client: r.ClientID, id: r.ID} }

// flight is the transport's half of one Recovery record: the request and,
// while an ASSIGN awaits its acknowledgement, when which attempt went to
// which worker (sentAt is zero otherwise).
type flight struct {
	req     *task.Request
	worker  int
	attempt uint16
	sentAt  time.Time
}

// Addr returns the dispatcher's bound UDP address.
func (d *Dispatcher) Addr() *net.UDPAddr { return d.conn.LocalAddr().(*net.UDPAddr) }

// Serve processes datagrams until Close. It is typically run in its own
// goroutine.
func (d *Dispatcher) Serve() error {
	defer close(d.loopDone)
	var h wire.Header
	for {
		n, from, err := d.conn.ReadFromUDP(d.recvBuf)
		if err != nil {
			if d.closed.Load() {
				return nil
			}
			return fmt.Errorf("live: dispatcher read: %w", err)
		}
		payload, err := wire.DecodeDatagram(d.recvBuf[:n], &h)
		if err != nil {
			continue // malformed datagram: drop, like a NIC would
		}
		d.handle(&h, payload, from)
	}
}

// Close shuts the dispatcher down and waits for the serve loop to exit.
func (d *Dispatcher) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	close(d.quit)
	err := d.conn.Close()
	<-d.loopDone
	return err
}

func (d *Dispatcher) handle(h *wire.Header, payload []byte, from *net.UDPAddr) {
	key, w := keyOfHeader(h), int(h.WorkerID)
	var as []core.Assignment
	d.mu.Lock()
	switch h.Type {
	case wire.MsgHello:
		as = d.hello(h.WorkerID, from)
	case wire.MsgRequest:
		req := task.New(h.ReqID, sim.Time(time.Since(d.started)), time.Duration(h.ServiceNS))
		req.ClientID = h.ClientID
		d.clients[key] = from
		if d.registered < d.cfg.Workers {
			d.pending = append(d.pending, req)
		} else {
			as = d.lgc.EnqueueTo(as, req.Arrival, req)
		}
	case wire.MsgFinish:
		if d.acked(d.rec.Finish(key, h.Flags, w)) != nil {
			delete(d.clients, key)
			d.completed.Add(1)
			as = d.lgc.CompleteTo(as, w)
		}
	case wire.MsgPreempted:
		if fl := d.acked(d.rec.Preempted(key, h.Flags, w)); fl != nil {
			fl.req.Remaining = time.Duration(h.RemainingNS)
			fl.req.Preemptions++
			d.preempted.Add(1)
			as = d.lgc.PreemptedTo(as, 0, w, fl.req)
		}
	}
	d.mu.Unlock()
	d.dispatch(as)
}

// acked applies Recovery's verdict on a FINISH or PREEMPTED: an accepted
// one's flight is returned disarmed; a stale one — a duplicate, or from an
// attempt whose credit an expiry already reclaimed — is counted, nil.
func (d *Dispatcher) acked(v core.Verdict, slot int) *flight {
	if v == core.Stale {
		d.stale.Add(1)
		return nil
	}
	d.flights[slot].sentAt = time.Time{}
	return &d.flights[slot]
}

// reaper is the transport's timer: it finds assignments unacknowledged for
// RetryTimeout and reports each to Recovery as expired.
func (d *Dispatcher) reaper() {
	ticker := time.NewTicker(max(d.cfg.RetryTimeout/2, time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-ticker.C:
		}
		now := time.Now()
		d.mu.Lock()
		var as []core.Assignment
		for i := range d.flights {
			fl := &d.flights[i]
			if fl.sentAt.IsZero() || now.Sub(fl.sentAt) < d.cfg.RetryTimeout {
				continue
			}
			fl.sentAt = time.Time{}
			switch v, _ := d.rec.Expired(keyOfReq(fl.req), fl.attempt, fl.worker); v {
			case core.Retry:
				d.retried.Add(1)
				as = d.lgc.CompleteTo(as, fl.worker)
				as = d.lgc.EnqueueTo(as, sim.Time(now.Sub(d.started)), fl.req)
			case core.Abandon:
				d.abandoned.Add(1)
				delete(d.clients, keyOfReq(fl.req))
				as = d.lgc.CompleteTo(as, fl.worker)
			}
		}
		d.mu.Unlock()
		d.dispatch(as)
	}
}

// hello registers a worker and, once the roster is complete, admits any
// buffered client requests. The caller holds d.mu.
func (d *Dispatcher) hello(id uint32, from *net.UDPAddr) (as []core.Assignment) {
	if int(id) >= len(d.workerAddr) || d.workerAddr[id] != nil {
		return nil
	}
	d.workerAddr[id] = from
	if d.registered++; d.registered == d.cfg.Workers {
		for _, req := range d.pending {
			as = d.lgc.EnqueueTo(as, req.Arrival, req)
		}
		d.pending = nil
	}
	return as
}

// dispatch transmits assignments to workers. The payload carries the
// client's address so the worker can respond directly (§3.4: "the worker
// also sends a response to the client").
func (d *Dispatcher) dispatch(as []core.Assignment) {
	for _, a := range as {
		d.mu.Lock()
		addr, key := d.workerAddr[a.Worker], keyOfReq(a.Req)
		client := d.clients[key]
		attempt := uint16(d.rec.Attempt(key))
		slot, _ := d.rec.Dispatched(key, attempt, a.Worker)
		if slot == len(d.flights) {
			d.flights = append(d.flights, flight{})
		}
		d.flights[slot] = flight{req: a.Req, worker: a.Worker, attempt: attempt, sentAt: time.Now()}
		h := wire.Header{
			Type:        wire.MsgAssign,
			Flags:       attempt,
			ReqID:       a.Req.ID,
			ClientID:    a.Req.ClientID,
			WorkerID:    uint32(a.Worker),
			ServiceNS:   uint32(a.Req.Service),
			RemainingNS: uint32(a.Req.Remaining),
		}
		d.payloadBuf = encodeAddr(d.payloadBuf[:0], client)
		d.sendBuf = d.sendBuf[:0]
		buf, err := wire.EncodeDatagram(d.sendBuf, &h, d.payloadBuf)
		d.mu.Unlock()
		if err != nil || addr == nil {
			continue
		}
		d.assigned.Add(1)
		_, _ = d.conn.WriteToUDP(buf, addr)
	}
}

// encodeAddr packs an IPv4 UDP address into 6 payload bytes.
func encodeAddr(dst []byte, a *net.UDPAddr) []byte {
	if a == nil {
		return append(dst, 0, 0, 0, 0, 0, 0)
	}
	ip4 := a.IP.To4()
	if ip4 == nil {
		ip4 = net.IPv4zero.To4()
	}
	dst = append(dst, ip4...)
	return append(dst, byte(a.Port>>8), byte(a.Port))
}

// decodeAddr unpacks encodeAddr's format; ok is false for the zero addr.
func decodeAddr(b []byte) (*net.UDPAddr, bool) {
	if len(b) < 6 {
		return nil, false
	}
	port := int(b[4])<<8 | int(b[5])
	if port == 0 {
		return nil, false
	}
	ip := make(net.IP, 4)
	copy(ip, b[:4])
	return &net.UDPAddr{IP: ip, Port: port}, true
}
