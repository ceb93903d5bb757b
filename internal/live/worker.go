package live

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"mindgap/internal/wire"
)

// WorkerConfig configures a live worker.
type WorkerConfig struct {
	// ID is the worker's index in the dispatcher's roster (0-based).
	ID uint32
	// Dispatcher is the dispatcher's UDP address.
	Dispatcher *net.UDPAddr
	// Slice is the cooperative preemption quantum; zero runs every request
	// to completion.
	Slice time.Duration
	// SpinFloor selects busy-wait execution for work chunks at or below
	// this duration (more accurate timing); longer chunks sleep. Default
	// 100µs.
	SpinFloor time.Duration
}

// Worker executes fake work on behalf of the dispatcher, mirroring §3.4.3:
// it receives assignments, runs them (preempting cooperatively at the
// slice), responds to clients directly, and notifies the dispatcher.
type Worker struct {
	cfg  WorkerConfig
	conn *net.UDPConn

	completed atomic.Uint64
	preempted atomic.Uint64
	closed    atomic.Bool
	loopDone  chan struct{}
}

// NewWorker binds a socket and registers with the dispatcher.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Dispatcher == nil {
		return nil, errors.New("live: worker needs a dispatcher address")
	}
	if cfg.SpinFloor == 0 {
		cfg.SpinFloor = 100 * time.Microsecond
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("live: worker listen: %w", err)
	}
	_ = conn.SetReadBuffer(4 << 20)
	w := &Worker{cfg: cfg, conn: conn, loopDone: make(chan struct{})}
	if err := w.send(&wire.Header{Type: wire.MsgHello, WorkerID: cfg.ID}, nil, cfg.Dispatcher); err != nil {
		conn.Close()
		return nil, err
	}
	return w, nil
}

// Addr returns the worker's bound UDP address.
func (w *Worker) Addr() *net.UDPAddr { return w.conn.LocalAddr().(*net.UDPAddr) }

// Serve processes assignments until Close.
func (w *Worker) Serve() error {
	defer close(w.loopDone)
	buf := make([]byte, maxDatagram)
	var h wire.Header
	for {
		n, _, err := w.conn.ReadFromUDP(buf)
		if err != nil {
			if w.closed.Load() {
				return nil
			}
			return fmt.Errorf("live: worker read: %w", err)
		}
		payload, err := wire.DecodeDatagram(buf[:n], &h)
		if err != nil || h.Type != wire.MsgAssign {
			continue
		}
		w.execute(&h, payload)
	}
}

// Close shuts the worker down.
func (w *Worker) Close() error {
	if w.closed.Swap(true) {
		return nil
	}
	err := w.conn.Close()
	<-w.loopDone
	return err
}

// execute runs one assignment: fake work for RemainingNS, cooperatively
// preempting at the slice boundary.
func (w *Worker) execute(h *wire.Header, payload []byte) {
	remaining := time.Duration(h.RemainingNS)
	if remaining == 0 {
		remaining = time.Duration(h.ServiceNS)
	}
	chunk := remaining
	preempt := w.cfg.Slice > 0 && remaining > w.cfg.Slice
	if preempt {
		chunk = w.cfg.Slice
	}
	w.work(chunk)
	// Every reply echoes the assignment's identity, attempt number included.
	reply := *h
	reply.WorkerID = w.cfg.ID
	if preempt {
		w.preempted.Add(1)
		reply.Type, reply.RemainingNS = wire.MsgPreempted, uint32(remaining-chunk)
		_ = w.send(&reply, nil, w.cfg.Dispatcher)
		return
	}
	w.completed.Add(1)
	// Respond to the client first (latency path), then notify the
	// dispatcher (§3.4.5 ordering).
	if client, ok := decodeAddr(payload); ok {
		reply.Type = wire.MsgResponse
		_ = w.send(&reply, nil, client)
	}
	reply.Type = wire.MsgFinish
	_ = w.send(&reply, nil, w.cfg.Dispatcher)
}

// work burns d of wall time: busy-spin for precision on short chunks,
// sleep for long ones.
func (w *Worker) work(d time.Duration) {
	if d <= 0 {
		return
	}
	if d > w.cfg.SpinFloor {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

func (w *Worker) send(h *wire.Header, payload []byte, to *net.UDPAddr) error {
	buf := make([]byte, 0, wire.HeaderSize+len(payload))
	buf, err := wire.EncodeDatagram(buf, h, payload)
	if err != nil {
		return err
	}
	_, err = w.conn.WriteToUDP(buf, to)
	return err
}
