package hypothesis

import (
	"sort"
	"strings"

	"mindgap/internal/experiment"
)

// MetricDef describes one comparable measurement of a simulated point.
type MetricDef struct {
	// Name is the spec-facing identifier.
	Name string
	// LowerBetter orients the comparison: latency and error rates are
	// minimized, goodput is maximized.
	LowerBetter bool
	// Unit labels values in FINDINGS tables ("ns", "rps", "fraction").
	Unit string
	// Audited marks metrics read from the decision audit (mis_dispatch):
	// their arms run as experiment.Attributed rows, which attach the
	// collector.
	Audited bool
}

// metrics is the closed set of supported metrics. Each reads existing
// experiment accessors — the hypothesis layer never computes new
// statistics from raw events.
var metrics = map[string]MetricDef{
	"p50":          {Name: "p50", LowerBetter: true, Unit: "ns"},
	"p99":          {Name: "p99", LowerBetter: true, Unit: "ns"},
	"mean":         {Name: "mean", LowerBetter: true, Unit: "ns"},
	"max":          {Name: "max", LowerBetter: true, Unit: "ns"},
	"goodput":      {Name: "goodput", LowerBetter: false, Unit: "rps"},
	"drop_rate":    {Name: "drop_rate", LowerBetter: true, Unit: "fraction"},
	"mis_dispatch": {Name: "mis_dispatch", LowerBetter: true, Unit: "fraction", Audited: true},
}

// metricNames returns the supported names, sorted, for error messages.
func metricNames() string {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// measurement is what the verdicts read of one measured point: the
// conventional result, plus the audit rate for audited metrics.
type measurement struct {
	Result experiment.Result
	// MisRate is the decision-audit mis-dispatch fraction (attribution
	// metrics only).
	MisRate float64
}

// value extracts the metric from one measured point.
func (d MetricDef) value(m measurement) float64 {
	switch d.Name {
	case "p50":
		return float64(m.Result.P50)
	case "p99":
		return float64(m.Result.P99)
	case "mean":
		return float64(m.Result.Mean)
	case "max":
		return float64(m.Result.Max)
	case "goodput":
		return m.Result.AchievedRPS
	case "drop_rate":
		total := m.Result.Completed + m.Result.Dropped
		if total == 0 {
			return 0
		}
		return float64(m.Result.Dropped) / float64(total)
	case "mis_dispatch":
		return m.MisRate
	default:
		panic("hypothesis: unknown metric " + d.Name)
	}
}
