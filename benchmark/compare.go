package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// readRuns loads the per-run JSON lines from a saved output of this command
// (any number of runs, any mix of workloads, timed and traced).
func readRuns(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"workload"`) {
			continue
		}
		var r runResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run results found", path)
	}
	return runs, nil
}

// quartilesExclusive are Q1 and Q3 as Python's statistics.quantiles(xs,
// n=4) gives them, which is how the spread of a set of runs is judged.
func quartilesExclusive(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.75)
}

// metricSet is one metric on one workload over one file's timed runs. It
// is noisy when more than a quarter of its runs were: a median over many
// runs shrugs off the odd noisy one, a single run does not.
type metricSet struct {
	median, spread float64
	noisy          bool
	runs           int
}

// collect gathers a metric's per-run medians. With four or more runs the
// spread is the interquartile range of those medians over their median;
// with fewer it is the widest rep-level IQR/median of the runs at hand.
func collect(runs []runResult, workload, metric string) (metricSet, bool) {
	var meds []float64
	var set metricSet
	noisyRuns := 0
	for _, r := range runs {
		s, ok := r.Metrics[metric]
		if r.Traced || r.Workload != workload || !ok {
			continue
		}
		meds = append(meds, s.Median)
		if r.Noisy {
			noisyRuns++
		}
		if s.Median > 0 {
			if sp := (s.Q3 - s.Q1) / s.Median; sp > set.spread {
				set.spread = sp
			}
		}
	}
	if len(meds) == 0 {
		return set, false
	}
	set.runs = len(meds)
	set.noisy = 4*noisyRuns > len(meds)
	set.median = median(meds)
	if len(meds) >= 4 {
		q1, q3 := quartilesExclusive(meds)
		set.spread = (q3 - q1) / set.median
	}
	return set, true
}

// compareFiles applies each end-to-end metric's own bound to two saved
// outputs (a = parent, b = change), one row per workload, and checks that
// every exact count and sim_digest of same-seed runs is identical. It
// returns the process exit code: 1 when anything regressed or differs.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRuns(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readRuns(pathB)
	if err != nil {
		fatal("%v", err)
	}
	code := 0
	for _, wl := range workloadDefs {
		var cells []string
		for _, d := range endToEndDefs {
			sa, okA := collect(a, wl.Name, d.Name)
			sb, okB := collect(b, wl.Name, d.Name)
			if !okA || !okB {
				continue
			}
			change := (sb.median - sa.median) / sa.median
			verdict := "within"
			switch {
			case sa.noisy || sb.noisy:
				verdict = "unresolved(noisy)"
			case sa.spread > d.Bound || sb.spread > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "REGRESSED"
				code = 1
			}
			cells = append(cells, fmt.Sprintf("%s %s %+.1f%% (bound %.0f%%, spread %.1f%%/%.1f%%, runs %d/%d)",
				d.Name, verdict, 100*change, 100*d.Bound, 100*sa.spread, 100*sb.spread, sa.runs, sb.runs))
		}
		if len(cells) > 0 {
			fmt.Fprintf(w, "%-13s %s\n", wl.Name, strings.Join(cells, "; "))
		}
		if diffs, pairs := exactDiffs(a, b, wl.Name); pairs > 0 {
			if len(diffs) == 0 {
				fmt.Fprintf(w, "%-13s exact counts and sim_digest identical over %d same-seed pair(s)\n", wl.Name, pairs)
			} else {
				code = 1
				fmt.Fprintf(w, "%-13s EXACT COUNTS DIFFER: %s\n", wl.Name, strings.Join(diffs, ", "))
			}
		}
	}
	return code
}

// exactDiffs compares sim_digest and every exact ledger value between runs
// of the two files that share workload, seed and mode.
func exactDiffs(a, b []runResult, workload string) (diffs []string, pairs int) {
	seen := map[string]bool{}
	for _, ra := range a {
		for _, rb := range b {
			if ra.Workload != workload || rb.Workload != workload || ra.Seed != rb.Seed || ra.Traced != rb.Traced {
				continue
			}
			pairs++
			if ra.SimDigest != rb.SimDigest && !seen["sim_digest"] {
				seen["sim_digest"] = true
				diffs = append(diffs, "sim_digest")
			}
			for _, name := range sortedKeys(ra.Ledger) {
				la, lb := ra.Ledger[name], rb.Ledger[name]
				// Exact counts must match bit for bit, hence != on floats.
				if la.Exact && la.Value != lb.Value && !seen[name] {
					seen[name] = true
					diffs = append(diffs, name)
				}
			}
		}
	}
	return diffs, pairs
}
