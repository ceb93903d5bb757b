// Package telemetry is the unified observability layer: a registry of
// named metrics (counters, gauges, latency histograms) labelled by
// component, shared by the simulated systems and the live UDP
// implementation.
//
// The paper's argument (§5.1) rests on seeing inside the system —
// queueing delay at each NIC ARM core, NIC↔host message latency,
// preemption counts, worker idle gaps. Components expose those signals
// here; consumers take a point-in-time Snapshot (JSON/CSV/expvar text) or
// scrape the registry over HTTP in live mode (internal/live.MetricsServer).
//
// Concurrency: counters and settable gauges are atomic, histograms take a
// mutex per observation, and the registry itself is lock-protected, so
// one registry can be mutated by a live system while an HTTP scraper
// snapshots it. Probe-backed gauges run their probe on the snapshotting
// goroutine; probes that touch shared state must do their own locking.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mindgap/internal/stats"
)

// Counter is a monotonically increasing event count: either incremented
// (Inc/Add) or backed by a probe function that is evaluated on every read.
type Counter struct {
	v  atomic.Int64
	fn func() uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas panic — counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count, evaluating the probe if one is attached.
func (c *Counter) Value() int64 {
	if c.fn != nil {
		return int64(c.fn())
	}
	return c.v.Load()
}

// Gauge is an instantaneous scalar: either settable (Set) or backed by a
// probe function that is evaluated on every read.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
}

// Set stores v. It panics on a probe-backed gauge, whose value is owned
// by the probe.
func (g *Gauge) Set(v float64) {
	if g.fn != nil {
		panic("telemetry: Set on probe-backed gauge")
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts a settable gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g.fn != nil {
		panic("telemetry: Add on probe-backed gauge")
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge, evaluating the probe if one is attached.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

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

// Registry holds a process's metrics, keyed "component/name". Metrics are
// created on first use (get-or-create), so wiring order never matters.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Key builds the canonical "component/name" metric key.
func Key(component, name string) string { return component + "/" + name }

// Counter returns the counter for component/name, creating it if needed.
// It panics if the key is already a probe-backed counter, whose value an
// Inc could not move.
func (r *Registry) Counter(component, name string) *Counter {
	k := Key(component, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	if c.fn != nil {
		panic(fmt.Sprintf("telemetry: counter %q is probe-backed", k))
	}
	return c
}

// CounterFunc registers a probe-backed counter whose value is fn() at read
// time — how a component exposes a count it already keeps (models count in
// uint64) without mirroring every increment. Re-registering a key replaces
// its probe.
func (r *Registry) CounterFunc(component, name string, fn func() uint64) {
	if fn == nil {
		panic("telemetry: nil counter probe")
	}
	k := Key(component, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[k] = &Counter{fn: fn}
}

// Gauge returns the settable gauge for component/name, creating it if
// needed. It panics if the key is already a probe-backed gauge.
func (r *Registry) Gauge(component, name string) *Gauge {
	k := Key(component, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	if g.fn != nil {
		panic(fmt.Sprintf("telemetry: gauge %q is probe-backed", k))
	}
	return g
}

// GaugeFunc registers a probe-backed gauge whose value is fn() at read
// time — how components expose internal state (queue depth, busy flags)
// without copying it anywhere. Re-registering a key replaces its probe.
func (r *Registry) GaugeFunc(component, name string, fn func() float64) {
	if fn == nil {
		panic("telemetry: nil gauge probe")
	}
	k := Key(component, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[k] = &Gauge{fn: fn}
}

// Histogram returns the latency histogram for component/name, creating it
// if needed.
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

// GaugeValue reads one gauge by key; ok is false for unknown keys.
func (r *Registry) GaugeValue(key string) (float64, bool) {
	r.mu.Lock()
	g, ok := r.gauges[key]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	return g.Value(), true
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]float64          `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
}

// Snapshot evaluates every metric (including gauge probes) at this
// instant.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.Unlock()

	// Probes run outside the registry lock: they may themselves lock the
	// component they observe.
	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSummary, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
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

// WriteCSV emits "kind,key,field,value" rows in sorted key order.
func (s Snapshot) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "kind,key,field,value"); err != nil {
		return err
	}
	for _, k := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter,%s,value,%d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge,%s,value,%g\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		rows := []struct {
			field string
			v     int64
		}{
			{"count", h.Count},
			{"mean_ns", int64(h.Mean)},
			{"p50_ns", int64(h.P50)},
			{"p99_ns", int64(h.P99)},
			{"max_ns", int64(h.Max)},
		}
		for _, row := range rows {
			if _, err := fmt.Fprintf(w, "histogram,%s,%s,%d\n", k, row.field, row.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteText emits expvar-style "key value" lines in sorted key order —
// the format served at /metrics in live mode.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, k := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
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
