// Package telemetry is the unified observability layer: a registry of
// named metrics labelled by component, shared by the simulated systems and
// the live UDP implementation.
//
// The paper's argument (§5.1) rests on seeing inside the system —
// queueing delay at each NIC ARM core, NIC↔host message latency,
// preemption counts, worker idle gaps. There is one probe form: a gauge is
// a function a component registers over a count or state it already keeps,
// evaluated when a Snapshot is taken, so nothing is mirrored on the hot
// path. The only pushed metric is the latency Histogram, which a component
// feeds one observation at a time. Consumers take a point-in-time Snapshot
// (JSON or expvar text) or scrape the registry over HTTP in live mode
// (internal/live.MetricsServer).
//
// Concurrency: histograms take a mutex per observation and the registry
// itself is lock-protected, so a live system can observe while an HTTP
// scraper snapshots. Gauge probes run on the snapshotting goroutine;
// probes that touch shared state must do their own locking.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mindgap/internal/stats"
)

// Histogram is a registry-owned latency histogram: a stats.Histogram
// behind a mutex so live-mode goroutines can observe concurrently.
type Histogram struct {
	mu sync.Mutex
	h  stats.Histogram
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.h.Record(d)
	h.mu.Unlock()
}

// Summary returns the distribution's headline statistics.
func (h *Histogram) Summary() HistogramSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSummary{
		Count: h.h.Count(),
		Mean:  h.h.Mean(),
		P50:   h.h.P50(),
		P99:   h.h.P99(),
		Max:   h.h.Max(),
	}
}

// HistogramSummary is the serialized form of one histogram.
type HistogramSummary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Registry holds a process's metrics, keyed "component/name".
type Registry struct {
	mu     sync.Mutex
	gauges map[string]func() float64
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: make(map[string]func() float64),
		hists:  make(map[string]*Histogram),
	}
}

// Key builds the canonical "component/name" metric key.
func Key(component, name string) string { return component + "/" + name }

// GaugeFunc registers a gauge whose value is fn() at read time — how a
// component exposes a count or state it already keeps (queue depth, drops,
// busy flags) without copying it anywhere. Re-registering a key replaces
// its probe.
func (r *Registry) GaugeFunc(component, name string, fn func() float64) {
	if fn == nil {
		panic("telemetry: nil gauge probe")
	}
	k := Key(component, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[k] = fn
}

// Histogram returns the latency histogram for component/name, creating it
// if needed, so wiring order never matters.
func (r *Registry) Histogram(component, name string) *Histogram {
	k := Key(component, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Gauges     map[string]float64          `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
}

// Snapshot evaluates every metric (including gauge probes) at this
// instant.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, fn := range r.gauges {
		gauges[k] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.Unlock()

	// Probes run outside the registry lock: they may themselves lock the
	// component they observe.
	s := Snapshot{
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSummary, len(hists)),
	}
	for k, fn := range gauges {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Summary()
	}
	return s
}

// WriteJSON serializes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText emits expvar-style "key value" lines in sorted key order —
// the format served at /metrics in live mode.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, k := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%s %g\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "%s/count %d\n%s/mean_ns %d\n%s/p50_ns %d\n%s/p99_ns %d\n%s/max_ns %d\n",
			k, h.Count, k, int64(h.Mean), k, int64(h.P50), k, int64(h.P99), k, int64(h.Max)); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
