package live

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"mindgap/internal/dist"
	"mindgap/internal/stats"
	"mindgap/internal/wire"
)

// ClientConfig configures a live open-loop load generator.
type ClientConfig struct {
	// Dispatcher is the dispatcher's UDP address.
	Dispatcher *net.UDPAddr
	// RPS is the offered Poisson arrival rate.
	RPS float64
	// Service is the fake-work distribution stamped on requests.
	Service dist.Distribution
	// Requests is the total number to send.
	Requests int
	// Seed fixes the arrival/service streams.
	Seed uint64
	// ClientID tags requests from this client.
	ClientID uint32
	// Timeout bounds the wait for stragglers after the last send
	// (default 5s); until then the receiver waits without a deadline.
	Timeout time.Duration
}

// ClientReport summarizes one live run.
type ClientReport struct {
	// Latency holds client-observed response times.
	Latency stats.Histogram
	// Sent, Received count requests and responses.
	Sent, Received int
	// Wall is the total wall-clock duration of the run.
	Wall time.Duration
	// AchievedRPS is Received / Wall.
	AchievedRPS float64
}

// RunClient executes one open-loop run against a live dispatcher and
// returns the latency report. It blocks until all responses arrive or the
// timeout expires.
func RunClient(cfg ClientConfig) (*ClientReport, error) {
	if cfg.Dispatcher == nil {
		return nil, errors.New("live: client needs a dispatcher address")
	}
	if cfg.RPS <= 0 || cfg.Requests <= 0 || cfg.Service == nil {
		return nil, errors.New("live: client needs rps, request count, and a service distribution")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("live: client listen: %w", err)
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(4 << 20)

	report := &ClientReport{}
	var mu sync.Mutex
	sendTimes := make(map[uint64]time.Time, cfg.Requests)
	done := make(chan struct{})

	// Receiver: match responses to send times.
	go func() {
		defer close(done)
		buf := make([]byte, maxDatagram)
		var h wire.Header
		for report.Received < cfg.Requests {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // timeout or closed: give up on stragglers
			}
			if _, err := wire.DecodeDatagram(buf[:n], &h); err != nil || h.Type != wire.MsgResponse {
				continue
			}
			mu.Lock()
			if t0, ok := sendTimes[h.ReqID]; ok {
				delete(sendTimes, h.ReqID)
				report.Latency.Record(time.Since(t0))
				report.Received++
			}
			mu.Unlock()
		}
	}()

	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xc11e47))
	start := time.Now()
	sendBuf := make([]byte, 0, wire.HeaderSize)
	next := start
	for i := 0; i < cfg.Requests; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(time.Second) / cfg.RPS)
		next = next.Add(gap)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		id := uint64(i + 1)
		h := wire.Header{
			Type:      wire.MsgRequest,
			ReqID:     id,
			ClientID:  cfg.ClientID,
			ServiceNS: uint32(cfg.Service.Sample(rng)),
		}
		sendBuf = sendBuf[:0]
		buf, err := wire.EncodeDatagram(sendBuf, &h, nil)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		sendTimes[id] = time.Now()
		mu.Unlock()
		if _, err := conn.WriteToUDP(buf, cfg.Dispatcher); err != nil {
			return nil, fmt.Errorf("live: client send: %w", err)
		}
		report.Sent++
	}
	// The deadline also wakes a read already blocked.
	_ = conn.SetReadDeadline(time.Now().Add(cfg.Timeout))
	<-done
	report.Wall = time.Since(start)
	if report.Wall > 0 {
		report.AchievedRPS = float64(report.Received) / report.Wall.Seconds()
	}
	return report, nil
}
