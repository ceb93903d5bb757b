// Package telemetry is the read-time gauge registry shared by the
// simulated systems and the live UDP implementation.
//
// There is one probe form: a gauge is a function a component registers
// over a count or state it already keeps, evaluated when a Snapshot is
// taken, so nothing is mirrored on the hot path. A simulated system
// registers only the gauges a consumer reads (the benchmark's per-request
// op counts); latency, queueing and the information gap are the lifecycle
// probe's to measure (internal/probe, internal/attr). Consumers take a
// point-in-time Snapshot (JSON or expvar text) or scrape the registry over
// HTTP in live mode (internal/live.MetricsServer).
//
// Concurrency: the registry is lock-protected, so a live system can
// register while an HTTP scraper snapshots. Gauge probes run on the
// snapshotting goroutine; probes that touch shared state must do their
// own locking.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Registry holds a process's gauges, keyed "component/name".
type Registry struct {
	mu     sync.Mutex
	gauges map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: make(map[string]func() float64)}
}

// GaugeFunc registers a gauge whose value is fn() at read time — how a
// component exposes a count or state it already keeps (queue depth, drops,
// busy flags) without copying it anywhere. Re-registering a key replaces
// its probe.
func (r *Registry) GaugeFunc(component, name string, fn func() float64) {
	if fn == nil {
		panic("telemetry: nil gauge probe")
	}
	k := component + "/" + name
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[k] = fn
}

// Snapshot is a point-in-time reading of every gauge in a registry.
type Snapshot struct {
	Gauges map[string]float64 `json:"gauges"`
}

// Snapshot evaluates every gauge probe at this instant.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, fn := range r.gauges {
		gauges[k] = fn
	}
	r.mu.Unlock()

	// Probes run outside the registry lock: they may themselves lock the
	// component they observe.
	s := Snapshot{Gauges: make(map[string]float64, len(gauges))}
	for k, fn := range gauges {
		s.Gauges[k] = fn()
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
	keys := make([]string, 0, len(s.Gauges))
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %g\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	return nil
}
