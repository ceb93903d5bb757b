// Package runner executes declarative experiment sweeps on a bounded
// pool of point slots. Every measured point in this repository is an
// independent, deterministic simulation (its own sim.Engine, RNG streams,
// and recorder), so a figure grid is embarrassingly parallel. A Runner
// owns one pool of Parallelism slots, shared by every sweep running on it
// at once: a free slot goes to the earliest-started sweep that has a
// point no saturation cut can prune, and to a point a cut might prune
// only when no sweep has such a point. Every result is keyed by its grid
// index, so output ordering — and therefore rendered figures — is
// byte-identical at any parallelism. A Runner honours context
// cancellation between points, reports live progress through a callback,
// runs each distinct keyed point once (an in-memory memo across its
// sweeps; a sweep asking for a point another sweep is running waits for
// it without holding a slot), and can memoise results in an on-disk cache
// so re-renders skip already-measured points.
//
// The package is deliberately generic: a Sweep[T] measures values of any
// JSON-serializable type T, so the figure grids (T = experiment.Result),
// the hypothesis arms, and the custom row kinds (attribution, dispersion,
// affinity, multi-tenant) all share one execution engine. A result is
// filed under its row type and its point key, so callers that read the
// same rows of the same simulation share one entry, and a type never
// meets another type's entry.
package runner

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
)

// PaceGC is called first thing by the batch CLIs: unless the user set GOGC,
// it raises the collector's target from 100 to 400. A sweep's live heap
// stays under 40 MB while its points churn through short-lived engines, so
// at the default pace the quick grid ran 86 collections whose concurrent
// mark kept write barriers on in the event loop; at 400 it runs about 15,
// for up to ~100 MB more peak RSS (EXPERIMENTS.md, "Profiling the engine").
func PaceGC() {
	if _, set := os.LookupEnv("GOGC"); !set {
		debug.SetGCPercent(400)
	}
}

// Point is one schedulable unit of work: a closure that runs one
// simulation to completion and returns its measurement.
type Point[T any] struct {
	// Key is the point's stable cache identity. It must uniquely describe
	// everything that determines the simulation (system configuration,
	// workload, load, seed, quality, calibration constants); the runner
	// adds the row type T, so a key need not say what is read from the
	// run. An empty Key disables caching for the point.
	Key string
	// Run executes the point. It is called at most once per sweep (per
	// Runner for a keyed point) and may run concurrently with other
	// points, so it must not share mutable state with sibling closures.
	Run func() T
}

// Series is one labelled curve of a sweep: points in grid order.
type Series[T any] struct {
	// Label names the curve in figures.
	Label string
	// Points in grid (x-axis) order.
	Points []Point[T]
	// StopAfterSaturated truncates the series after this many consecutive
	// saturated points (0 keeps every point) — matching how the paper's
	// figures end shortly after the knee. Saturation is read from results
	// implementing interface{ IsSaturated() bool }; other types never
	// truncate. Truncation is applied to the *ordered* results, so the
	// cut falls at the same grid index at any parallelism; points past
	// the cut that have not started yet are skipped as an optimization.
	StopAfterSaturated int
}

// Sweep is a named declarative grid of measurement points.
type Sweep[T any] struct {
	// Name identifies the sweep in progress reports.
	Name   string
	Series []Series[T]
}

// SeriesResult is one executed curve: results in grid order, truncated
// per StopAfterSaturated (and, after cancellation, to the contiguous
// completed prefix).
type SeriesResult[T any] struct {
	Label   string
	Results []T
}

// Event describes one completed point, delivered to Runner.Progress.
type Event struct {
	// Sweep and Series locate the point; Index is its grid position.
	Sweep, Series string
	Index         int
	// Done and Total count completed and scheduled points of the sweep.
	Done, Total int
	// Cached is set when the result came from the Runner's memo (a twin
	// in flight included) or the on-disk cache.
	Cached bool
}

// Runner owns the execution policy for sweeps: parallelism, caching, and
// progress reporting. The zero value is a ready-to-use runner at
// GOMAXPROCS parallelism with no cache. A single Runner may execute many
// sweeps, concurrently if desired; they share its slots and its memo.
type Runner struct {
	// Parallelism bounds concurrently running points, across every sweep
	// on this Runner; values <= 0 mean runtime.GOMAXPROCS(0).
	Parallelism int
	// Cache optionally memoises results of points with non-empty keys.
	Cache *Cache
	// Progress is invoked after every completed point (from point
	// goroutines; it must be safe for concurrent use).
	Progress func(Event)

	mu     sync.Mutex
	busy   int     // slots running a point
	sweeps []sweep // live sweeps in start order, the order slots are offered in
	// memo maps an entry (row type and point key) to its one flight, so
	// sweeps that share a point (a figure's baseline series repeated in
	// the next figure, a hypothesis arm) measure it once per process, even
	// when both ask at once. It is consulted before the disk cache.
	// Results are handed out shared: callers treat them as immutable.
	memo  map[string]*flight
	stats Stats
}

// Stats counts what a Runner did with the points its sweeps declared.
type Stats struct {
	// Ran counts points whose Run was called; Memo and Disk count points
	// served from the Runner's memo and from the on-disk cache.
	Ran, Memo, Disk int
	// PrunedBeforeStart counts points a saturation cut skipped;
	// PrunedAfterStart counts points claimed before the cut that
	// discarded them was known.
	PrunedBeforeStart, PrunedAfterStart int
	// Twins counts points that waited, slotless, on their entry's flight.
	Twins int
}

// Stats returns the counts since the Runner was created.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// flight is the measurement of one entry, shared by every claim of its
// key: the first claim runs it (or loads it from disk), later ones wait
// for done.
type flight struct {
	done chan struct{}
	v    any
	// failed is the panic message of a Run that panicked.
	failed any
}

// entry is where a result of type T for key is filed, in the memo and on
// disk: the key names the simulation, the row type what was read from it,
// so one key serves every caller that reads the same rows and no caller is
// ever handed another type's entry.
func entry[T any](key string) string {
	return reflect.TypeFor[T]().String() + "|" + key
}

// saturated reports whether a measurement flags itself saturated.
func saturated(v any) bool {
	if m, ok := v.(interface{ IsSaturated() bool }); ok {
		return m.IsSaturated()
	}
	return false
}

// sweep is a live Run call as the pool sees it.
type sweep interface {
	// claim starts the sweep's next point, only one no saturation cut can
	// prune when safe is set, and reports whether it found one.
	claim(safe bool) bool
}

// dispatch fills free slots, under r.mu. Each goes to the earliest-started
// sweep with a safe point; only when no sweep has one does a slot start a
// point a cut may prune. Claims served by the memo take no slot.
func (r *Runner) dispatch() {
	par := r.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	for r.busy < par && (r.claim(true) || r.claim(false)) {
	}
}

// claim offers one slot to the live sweeps in start order.
func (r *Runner) claim(safe bool) bool {
	for _, s := range r.sweeps {
		if s.claim(safe) {
			return true
		}
	}
	return false
}

// seriesState tracks one series of a live sweep under Runner.mu.
type seriesState[T any] struct {
	results []T
	have    []bool
	// next is the lowest unclaimed point; contig is the length of the
	// contiguous completed prefix.
	next, contig int
	// satRun counts consecutive saturated points at the end of the
	// contiguous prefix.
	satRun int
	// cut is the index of the last point to keep, or -1 while the stop
	// rule has not triggered.
	cut int
}

// sweepRun is the state of one Run call, guarded by r.mu.
type sweepRun[T any] struct {
	r      *Runner
	ctx    context.Context
	sw     Sweep[T]
	series []seriesState[T]
	// done counts completed points, total the declared ones.
	done, total int
	// left counts points not yet settled: reported, pruned, or abandoned
	// when the sweep stopped. fin closes when it reaches zero.
	left     int
	fin      chan struct{}
	panicked any
}

func (s *sweepRun[T]) claim(safe bool) bool {
	if s.ctx.Err() != nil {
		return false
	}
	for si := range s.series {
		st := &s.series[si]
		stop := s.sw.Series[si].StopAfterSaturated
		// No cut can fall before contig + stop - satRun - 1: that needs
		// every unknown point up to it to come back saturated.
		if st.next == len(st.have) || safe && stop > 0 && st.next >= st.contig+stop-st.satRun {
			continue
		}
		s.start(si, st.next)
		st.next++
		return true
	}
	return false
}

// start claims point pi of series si: it joins the point's flight if its
// entry has one, and otherwise takes a slot to measure it.
func (s *sweepRun[T]) start(si, pi int) {
	r := s.r
	var f *flight
	if key := s.sw.Series[si].Points[pi].Key; key != "" {
		e := entry[T](key)
		if f = r.memo[e]; f != nil {
			select {
			case <-f.done:
				r.stats.Memo++
			default:
				r.stats.Twins++
			}
			go s.point(si, pi, f, false)
			return
		}
		f = &flight{done: make(chan struct{})}
		if r.memo == nil {
			r.memo = map[string]*flight{}
		}
		r.memo[e] = f
	}
	r.busy++
	go s.point(si, pi, f, true)
}

// point obtains one claimed point's result — measured when own is set,
// else from f — and files it.
func (s *sweepRun[T]) point(si, pi int, f *flight, own bool) {
	var v T
	var disk bool
	var failed any
	if own {
		v, disk, failed = s.measure(si, pi)
		if f != nil {
			f.v, f.failed = v, failed
			close(f.done)
		}
	} else {
		<-f.done
		v, _ = f.v.(T) // a nil interface T comes back as nil
		failed = f.failed
	}
	r := s.r
	r.mu.Lock()
	if own {
		r.busy--
		if disk {
			r.stats.Disk++
		} else {
			r.stats.Ran++
		}
	}
	ev, ok := s.record(si, pi, v, failed, !own || disk)
	r.dispatch()
	r.mu.Unlock()
	if ok && r.Progress != nil {
		r.Progress(ev)
	}
	r.mu.Lock()
	s.settle(1)
	r.mu.Unlock()
}

// measure loads point pi of series si from the disk cache, or runs it and
// files the result there. A panic in Run comes back as failed, naming the
// point.
func (s *sweepRun[T]) measure(si, pi int) (v T, disk bool, failed any) {
	p := s.sw.Series[si].Points[pi]
	c := s.r.Cache
	if c != nil && p.Key != "" && c.get(entry[T](p.Key), &v) {
		return v, true, nil
	}
	defer func() {
		if x := recover(); x != nil {
			failed = fmt.Sprintf("runner: sweep %s, series %q, point %d (key %q): %v",
				s.sw.Name, s.sw.Series[si].Label, pi, p.Key, x)
		}
	}()
	v = p.Run()
	if c != nil && p.Key != "" {
		c.put(entry[T](p.Key), v)
	}
	return v, false, nil
}

// record files a finished point and advances the series' stop rule; a
// failed point stops the sweep instead.
func (s *sweepRun[T]) record(si, pi int, v T, failed any, cached bool) (Event, bool) {
	if failed != nil {
		if s.panicked == nil {
			s.panicked = failed
		}
		s.stop()
		return Event{}, false
	}
	st := &s.series[si]
	stop := s.sw.Series[si].StopAfterSaturated
	st.results[pi], st.have[pi] = v, true
	for st.contig < len(st.have) && st.have[st.contig] {
		if saturated(st.results[st.contig]) {
			st.satRun++
			if stop > 0 && st.satRun >= stop && st.cut < 0 {
				st.cut = st.contig
				s.r.stats.PrunedAfterStart += st.next - st.cut - 1
				s.r.stats.PrunedBeforeStart += s.drop(st)
			}
		} else {
			st.satRun = 0
		}
		st.contig++
	}
	s.done++
	return Event{Sweep: s.sw.Name, Series: s.sw.Series[si].Label, Index: pi, Done: s.done, Total: s.total, Cached: cached}, true
}

// drop settles a series' unclaimed points and returns how many there were.
func (s *sweepRun[T]) drop(st *seriesState[T]) int {
	n := len(st.have) - st.next
	st.next = len(st.have)
	s.settle(n)
	return n
}

// stop ends the sweep's claims; claimed points still settle.
func (s *sweepRun[T]) stop() {
	for si := range s.series {
		s.drop(&s.series[si])
	}
}

// settle retires n points; the last one takes the sweep off the Runner
// and releases Run.
func (s *sweepRun[T]) settle(n int) {
	s.left -= n
	if n > 0 && s.left == 0 {
		s.r.sweeps = slices.DeleteFunc(s.r.sweeps, func(x sweep) bool { return x == sweep(s) })
		close(s.fin)
	}
}

// Run executes the sweep and returns one SeriesResult per declared
// series, in declaration order, with results in grid order — the output
// is byte-identical at -j1 and -jN, and whatever else runs on r. On
// context cancellation it stops claiming new points, waits for its
// claimed points to finish (no goroutine leaks), and returns the
// contiguous completed prefix of every series together with ctx.Err().
// A nil Runner behaves like &Runner{}.
func Run[T any](ctx context.Context, r *Runner, sw Sweep[T]) ([]SeriesResult[T], error) {
	if r == nil {
		r = &Runner{}
	}
	s := &sweepRun[T]{r: r, ctx: ctx, sw: sw, series: make([]seriesState[T], len(sw.Series)), fin: make(chan struct{})}
	for si, ser := range sw.Series {
		n := len(ser.Points)
		s.series[si] = seriesState[T]{results: make([]T, n), have: make([]bool, n), cut: -1}
		s.total += n
	}
	if s.left = s.total; s.left > 0 {
		r.mu.Lock()
		r.sweeps = append(r.sweeps, s)
		r.dispatch()
		r.mu.Unlock()
		select {
		case <-s.fin:
		case <-ctx.Done():
			r.mu.Lock()
			s.stop()
			r.mu.Unlock()
			<-s.fin
		}
	}
	if s.panicked != nil {
		panic(s.panicked)
	}

	out := make([]SeriesResult[T], len(sw.Series))
	for si, ser := range sw.Series {
		st := &s.series[si]
		n := st.contig
		if st.cut >= 0 && st.cut+1 < n {
			n = st.cut + 1
		}
		out[si] = SeriesResult[T]{Label: ser.Label, Results: st.results[:n:n]}
	}
	return out, ctx.Err()
}

// RunOne is the single-series convenience form of Run.
func RunOne[T any](ctx context.Context, r *Runner, name string, s Series[T]) ([]T, error) {
	res, err := Run(ctx, r, Sweep[T]{Name: name, Series: []Series[T]{s}})
	return res[0].Results, err
}
