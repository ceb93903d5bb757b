package experiment

import (
	"fmt"
	"io"
	"time"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
	"mindgap/internal/stats"
	"mindgap/internal/task"
)

// TenantResult is one tenant's measured latency profile within a mix.
type TenantResult struct {
	// Sched names the queue discipline the mix ran under: "fifo" when
	// every tenant is in class 0, "priority" when the classes differ.
	Sched     string
	Tenant    scenario.TenantSpec
	P50, P99  time.Duration
	Mean      time.Duration
	Completed int64
}

// TenantMix is the X9 row kind: several tenants sharing one server
// (§2.2: "multiple co-located applications from different latency
// classes"), profiled per tenant. A tenants series with classes is
// measured twice: with all tenants flattened into class 0 — one shared
// FIFO — then as written, under strict class priority; an all-class-0
// series is that FIFO already and is measured once. A series without
// tenants has no mix to profile and yields no rows.
var TenantMix = Kind[[]TenantResult]{
	run: func(cfg PointConfig, sp scenario.Spec, _ float64) []TenantResult {
		sched := "fifo"
		if classed(sp) {
			sched = "priority"
		}
		// drive stamps each request with its tenant's index.
		hist := make([]stats.Histogram, len(sp.Tenants))
		drive(cfg, func(r *task.Request, latency time.Duration) {
			hist[r.ClientID].Record(latency)
		})
		out := make([]TenantResult, len(sp.Tenants))
		for i, t := range sp.Tenants {
			h := &hist[i]
			out[i] = TenantResult{
				Sched: sched, Tenant: t,
				P50: h.P50(), P99: h.P99(), Mean: h.Mean(), Completed: h.Count(),
			}
		}
		return out
	},
	variants: func(sp scenario.Spec) []scenario.Spec {
		switch {
		case len(sp.Tenants) == 0:
			return nil
		case classed(sp):
			return []scenario.Spec{sp.WithFlatTenants(), sp}
		default:
			return []scenario.Spec{sp}
		}
	},
}

// classed reports whether some tenant of sp is in a class other than 0.
func classed(sp scenario.Spec) bool {
	for _, t := range sp.Tenants {
		if t.Class > 0 {
			return true
		}
	}
	return false
}

// printTenants prints X9, one row per tenant of each mix.
func printTenants(w io.Writer, _ scenario.Preset, res []runner.SeriesResult[[]TenantResult]) {
	fmt.Fprintf(w, "%-22s %-10s %12s %12s %12s %10s\n", "tenant", "sched", "p50", "p99", "mean", "completed")
	for _, mix := range Rows(res) {
		for _, tr := range mix {
			fmt.Fprintf(w, "%-22s %-10s %12v %12v %12v %10d\n",
				tr.Tenant.Name, tr.Sched, tr.P50, tr.P99, tr.Mean, tr.Completed)
		}
	}
	fmt.Fprintln(w)
}
