package experiment

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"mindgap/internal/runner"
	"mindgap/internal/scenario"
)

// RenderPreset measures preset p on rn and prints it to w. A preset whose
// every series is a tenant mix prints one line per tenant led by its
// series label, a mix with classes on one FIFO and then under its class
// priorities. Any other preset prints its figure in format f; a preset
// whose every series sweeps flow populations is measured as
// FlowRuleDetail rows, so its figure and the X14 table share one run.
// After a cancelled run it prints the completed prefix and returns the
// context error; a preset that does not compile prints nothing.
func RenderPreset(ctx context.Context, rn *runner.Runner, p scenario.Preset, q Quality, w io.Writer, f Format) error {
	mixes, flows := true, true
	for i := range p.Series {
		sp := p.SpecFor(i)
		mixes = mixes && len(sp.Tenants) > 0
		flows = flows && sp.Load != nil && sp.Load.FSweep != nil
	}
	if mixes {
		res, err := Run(ctx, rn, p, q, TenantMix)
		if res == nil {
			return err
		}
		fmt.Fprintf(w, "# scenario %s (multi-tenant)\n", p.ID)
		// Labels and tenant names are quoted only where a field needs it.
		cw := csv.NewWriter(w)
		for _, sr := range res {
			for _, mix := range sr.Results {
				for _, tr := range mix {
					cw.Write([]string{sr.Label, tr.Sched, tr.Tenant.Name, tr.P50.String(), tr.P99.String(),
						tr.Mean.String(), strconv.FormatInt(tr.Completed, 10)})
				}
			}
		}
		if cw.Flush(); cw.Error() != nil {
			return cw.Error()
		}
		return err
	}
	var res []runner.SeriesResult[Result]
	var err error
	if flows {
		var rows []runner.SeriesResult[FlowRuleRow]
		if rows, err = Run(ctx, rn, p, q, FlowRuleDetail); rows != nil {
			res = FlowRuleResults(rows)
		}
	} else {
		res, err = Run(ctx, rn, p, q, Plain)
	}
	if res == nil {
		return err
	}
	fig := NewFigure(p, res)
	switch f {
	case CSV:
		if werr := fig.WriteCSV(w); werr != nil {
			return werr
		}
	case Plot:
		fig.Plot(w, 72, 20)
	default:
		fig.Render(w)
	}
	return err
}

// Render prints a figure as human-readable tables, one block per series.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "   x = %s, y = %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "-- %s\n", s.Label)
		fmt.Fprintf(w, "%14s %14s %12s %12s %10s %6s\n",
			"x", "achieved_rps", "p50", "p99", "idle%", "sat")
		for _, r := range s.Results {
			sat := ""
			if r.Saturated {
				sat = "*"
			}
			fmt.Fprintf(w, "%14.0f %14.0f %12v %12v %9.1f%% %6s\n",
				r.OfferedRPS, r.AchievedRPS, r.P50, r.P99,
				r.WorkerIdleFraction*100, sat)
		}
	}
}

// WriteCSV emits the figure in a machine-readable form, one row per point.
func (f Figure) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,series,x,achieved_rps,p50_ns,p99_ns,mean_ns,max_ns,completed,dropped,preemptions,idle_frac,saturated"); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, r := range s.Results {
			if _, err := fmt.Fprintf(w, "%s,%q,%g,%g,%d,%d,%d,%d,%d,%d,%d,%g,%t\n",
				f.ID, s.Label, r.OfferedRPS, r.AchievedRPS,
				r.P50.Nanoseconds(), r.P99.Nanoseconds(),
				r.Mean.Nanoseconds(), r.Max.Nanoseconds(),
				r.Completed, r.Dropped, r.Preemptions,
				r.WorkerIdleFraction, r.Saturated); err != nil {
				return err
			}
		}
	}
	return nil
}

// SaturationPoint returns the lowest offered load at which the series
// saturated, or the last x value if it never did (useful for summarizing
// who-wins-by-how-much comparisons).
func (s Series) SaturationPoint() float64 {
	for _, r := range s.Results {
		if r.Saturated {
			return r.OfferedRPS
		}
	}
	if n := len(s.Results); n > 0 {
		return s.Results[n-1].OfferedRPS
	}
	return 0
}

// PeakThroughput returns the highest achieved rate in the series.
func (s Series) PeakThroughput() float64 {
	best := 0.0
	for _, r := range s.Results {
		if r.AchievedRPS > best {
			best = r.AchievedRPS
		}
	}
	return best
}
