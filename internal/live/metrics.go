package live

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"mindgap/internal/telemetry"
)

// MetricsServer scrapes a telemetry registry over HTTP — the live twin of
// the simulator's Snapshot path. Two endpoints:
//
//   - /metrics: expvar-style "key value" plain text, one metric per line.
//   - /debug/vars: the full snapshot as JSON, mirroring the stdlib expvar
//     convention.
//
// Every read takes a fresh Snapshot, so gauges (queue depth, in-flight
// count) reflect the instant of the scrape.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeMetrics binds addr (e.g. "127.0.0.1:0") and serves reg until
// Close. The listener is bound synchronously — the returned server's Addr
// is immediately scrapeable — and requests are served on a background
// goroutine.
func ServeMetrics(addr string, reg *telemetry.Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.Snapshot().WriteJSON(w)
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	m := &MetricsServer{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return m, nil
}

// Addr returns the bound address.
func (m *MetricsServer) Addr() net.Addr { return m.ln.Addr() }

// URL returns the server's base URL, e.g. "http://127.0.0.1:43210".
func (m *MetricsServer) URL() string { return "http://" + m.ln.Addr().String() }

// Close stops serving.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// RegisterMetrics exposes the dispatcher's scheduling state on reg under
// the "dispatcher" component: assignment/completion/preemption/retry
// counters, the central queue depth, in-flight assignments, and worker
// registration progress. Probes lock the dispatcher only for the
// mutex-guarded scheduler state.
func (d *Dispatcher) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("dispatcher", "assigned", func() float64 { return float64(d.assigned.Load()) })
	reg.GaugeFunc("dispatcher", "completed", func() float64 { return float64(d.completed.Load()) })
	reg.GaugeFunc("dispatcher", "preempted", func() float64 { return float64(d.preempted.Load()) })
	reg.GaugeFunc("dispatcher", "retried", func() float64 { return float64(d.retried.Load()) })
	reg.GaugeFunc("dispatcher", "abandoned", func() float64 { return float64(d.abandoned.Load()) })
	reg.GaugeFunc("dispatcher", "stale_acks", func() float64 { return float64(d.stale.Load()) })
	locked := func(name string, read func() int) {
		reg.GaugeFunc("dispatcher", name, func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(read())
		})
	}
	locked("queue_depth", d.lgc.QueueLen)
	locked("inflight", d.rec.Len)
	locked("workers_registered", func() int { return d.registered })
}

// RegisterMetrics exposes the worker's execution counters on reg under
// "worker<id>".
func (w *Worker) RegisterMetrics(reg *telemetry.Registry) {
	comp := fmt.Sprintf("worker%d", w.cfg.ID)
	reg.GaugeFunc(comp, "completed", func() float64 { return float64(w.completed.Load()) })
	reg.GaugeFunc(comp, "preempted", func() float64 { return float64(w.preempted.Load()) })
}
