package faults

import (
	"sort"
	"time"

	"mindgap/internal/sim"
)

// span is one resolved fault interval [start, end) with a progress
// factor: the fraction of healthy processing rate available inside it.
// Factor 0 is a crash/stall (no progress); 0 < factor < 1 is a
// slowdown. Spans in a timeline are sorted and disjoint; time outside
// every span runs at factor 1.
type span struct {
	start, end sim.Time
	factor     float64
}

// timeline is a sorted, disjoint set of fault spans.
type timeline []span

// mergeWindows resolves a window list into sorted spans with the given
// factor, coalescing overlapping or adjacent windows.
func mergeWindows(ws []Window, factor float64) timeline {
	if len(ws) == 0 {
		return nil
	}
	spans := make(timeline, 0, len(ws))
	for _, w := range ws {
		spans = append(spans, span{sim.Time(w.Start), sim.Time(w.End), factor})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	out := spans[:1]
	for _, sp := range spans[1:] {
		last := &out[len(out)-1]
		if sp.start <= last.end {
			if sp.end > last.end {
				last.end = sp.end
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}

// overlay combines a slowdown timeline with a crash timeline, crash
// winning wherever they overlap: each slow span is clipped against every
// crash span and the surviving pieces are interleaved with the crash
// spans into one sorted, disjoint timeline.
func overlay(slow, crash timeline) timeline {
	if len(crash) == 0 {
		return slow
	}
	out := make(timeline, 0, len(slow)+len(crash))
	out = append(out, crash...)
	for _, sl := range slow {
		cur := sl.start
		for _, cr := range crash {
			if cr.end <= cur {
				continue
			}
			if cr.start >= sl.end {
				break
			}
			if cr.start > cur {
				out = append(out, span{cur, cr.start, sl.factor})
			}
			cur = cr.end
			if cur >= sl.end {
				break
			}
		}
		if cur < sl.end {
			out = append(out, span{cur, sl.end, sl.factor})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// holds reports whether a span of the timeline holds an instant of
// [from, to].
func (t timeline) holds(from, to sim.Time) bool {
	i := sort.Search(len(t), func(j int) bool { return t[j].end > from })
	return i < len(t) && t[i].start <= to
}

// stretch converts an amount of work starting at `at` into the wall
// (simulation-clock) duration it takes under the timeline: inside a
// factor-f span, work completes at f times the healthy rate; inside a
// crash span it makes no progress until the span ends. The result is
// always >= work, and exactly work when no span intersects the busy
// period.
func (t timeline) stretch(at sim.Time, work time.Duration) time.Duration {
	if len(t) == 0 || work <= 0 {
		return work
	}
	cur := at
	remaining := float64(work)
	elapsed := float64(0)
	i := sort.Search(len(t), func(j int) bool { return t[j].end > cur })
	for ; i < len(t) && remaining > 0; i++ {
		sp := t[i]
		if cur < sp.start {
			gap := float64(sp.start - cur)
			if remaining <= gap {
				elapsed += remaining
				remaining = 0
				break
			}
			elapsed += gap
			remaining -= gap
			cur = sp.start
		}
		spanLen := float64(sp.end - cur)
		if sp.factor <= 0 {
			elapsed += spanLen
			cur = sp.end
			continue
		}
		capacity := spanLen * sp.factor
		if remaining <= capacity {
			elapsed += remaining / sp.factor
			remaining = 0
			break
		}
		elapsed += spanLen
		remaining -= capacity
		cur = sp.end
	}
	elapsed += remaining
	d := time.Duration(elapsed)
	if d < work {
		// Float rounding must never shrink a cost: a shorter-than-healthy
		// service would let a fault *improve* latency.
		d = work
	}
	return d
}
