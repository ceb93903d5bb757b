// Package runner executes declarative experiment sweeps on a bounded
// worker pool. Every measured point in this repository is an independent,
// deterministic simulation (its own sim.Engine, RNG streams, and
// recorder), so a figure grid is embarrassingly parallel: the runner
// fans points out across host cores, keys every result by its grid index
// so output ordering — and therefore rendered figures — is byte-identical
// at any parallelism, honours context cancellation between points, reports
// live progress through a callback, measures each distinct keyed point once
// per Runner (an in-memory memo across its sweeps), and can memoise results
// in an on-disk cache so re-renders skip already-measured points.
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
	// Run executes the point. It is called at most once per sweep and may
	// run concurrently with other points, so it must not share mutable
	// state with sibling closures.
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
	// Cached is set when the result came from the Runner's memo or the
	// on-disk cache.
	Cached bool
}

// Runner owns the execution policy for sweeps: parallelism, caching, and
// progress reporting. The zero value is a ready-to-use serial-equivalent
// runner at GOMAXPROCS parallelism with no cache. A single Runner may
// execute many sweeps, concurrently if desired.
type Runner struct {
	// Parallelism bounds concurrently running points; values <= 0 mean
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// Cache optionally memoises results of points with non-empty keys.
	Cache *Cache
	// Progress is invoked after every completed point (from worker
	// goroutines; it must be safe for concurrent use).
	Progress func(Event)

	// memo maps an entry (row type and point key) to the result this
	// Runner last ran or loaded for it, so sweeps that share a point (a
	// figure's baseline series repeated in the next figure, a hypothesis
	// arm) measure it once per process. It is keyed like the disk cache
	// and consulted before it. Results are handed out shared: callers treat
	// them as immutable.
	memo sync.Map
}

// entry is where a result of type T for key is filed, in the memo and on
// disk: the key names the simulation, the row type what was read from it,
// so one key serves every caller that reads the same rows and no caller is
// ever handed another type's entry.
func entry[T any](key string) string {
	return reflect.TypeFor[T]().String() + "|" + key
}

// recall returns the memoised or disk-cached result for key.
func recall[T any](r *Runner, key string) (v T, ok bool) {
	if key == "" {
		return v, false
	}
	e := entry[T](key)
	if m, hit := r.memo.Load(e); hit {
		return m.(T), true
	}
	if r.Cache != nil && r.Cache.get(e, &v) {
		r.memo.Store(e, v)
		return v, true
	}
	return v, false
}

// remember files a freshly run result under key, in the memo and on disk.
func remember[T any](r *Runner, key string, v T) {
	if key == "" {
		return
	}
	e := entry[T](key)
	r.memo.Store(e, v)
	if r.Cache != nil {
		r.Cache.put(e, v)
	}
}

// saturated reports whether a measurement flags itself saturated.
func saturated(v any) bool {
	if m, ok := v.(interface{ IsSaturated() bool }); ok {
		return m.IsSaturated()
	}
	return false
}

// task locates one point in the sweep grid.
type task struct{ si, pi int }

// seriesState tracks per-series completion under state.mu.
type seriesState[T any] struct {
	results []T
	have    []bool
	// contig is the length of the contiguous completed prefix.
	contig int
	// satRun counts consecutive saturated points at the end of the
	// contiguous prefix.
	satRun int
	// cut is the index of the last point to keep, or -1 while the stop
	// rule has not triggered.
	cut int
}

// Run executes the sweep and returns one SeriesResult per declared
// series, in declaration order, with results in grid order — the output
// is byte-identical at -j1 and -jN. On context cancellation it stops
// scheduling new points, waits for in-flight points to finish (no
// goroutine leaks), and returns the contiguous completed prefix of every
// series together with ctx.Err(). A nil Runner behaves like &Runner{}.
func Run[T any](ctx context.Context, r *Runner, sw Sweep[T]) ([]SeriesResult[T], error) {
	if r == nil {
		r = &Runner{}
	}
	par := r.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	var tasks []task
	states := make([]*seriesState[T], len(sw.Series))
	for si, s := range sw.Series {
		states[si] = &seriesState[T]{
			results: make([]T, len(s.Points)),
			have:    make([]bool, len(s.Points)),
			cut:     -1,
		}
		for pi := range s.Points {
			tasks = append(tasks, task{si, pi})
		}
	}
	total := len(tasks)

	var (
		mu       sync.Mutex
		done     int
		panicked any
		panicSet bool
	)

	// The feeder pushes tasks in grid order (so -j1 runs the exact serial
	// schedule) and stops at cancellation; closing the channel drains the
	// workers.
	runCtx, stopFeed := context.WithCancel(ctx)
	defer stopFeed()
	ch := make(chan task)
	go func() {
		defer close(ch)
		for _, t := range tasks {
			// Checked separately first: when a send and the cancellation are
			// both ready, select picks randomly, and a cancelled sweep must
			// never schedule another point.
			if runCtx.Err() != nil {
				return
			}
			select {
			case ch <- t:
			case <-runCtx.Done():
				return
			}
		}
	}()

	// complete records a finished point and advances the series' stop rule.
	complete := func(t task, v T, cached bool) {
		st := states[t.si]
		stop := sw.Series[t.si].StopAfterSaturated
		mu.Lock()
		st.results[t.pi] = v
		st.have[t.pi] = true
		for st.contig < len(st.have) && st.have[st.contig] {
			if saturated(st.results[st.contig]) {
				st.satRun++
				if stop > 0 && st.satRun >= stop && st.cut < 0 {
					st.cut = st.contig
				}
			} else {
				st.satRun = 0
			}
			st.contig++
		}
		done++
		doneNow := done
		mu.Unlock()
		if r.Progress != nil {
			r.Progress(Event{
				Sweep:  sw.Name,
				Series: sw.Series[t.si].Label,
				Index:  t.pi,
				Done:   doneNow,
				Total:  total,
				Cached: cached,
			})
		}
	}

	// pruned reports whether the point lies beyond its series' cut and can
	// be skipped without affecting the (truncated) output.
	pruned := func(t task) bool {
		st := states[t.si]
		mu.Lock()
		defer mu.Unlock()
		return st.cut >= 0 && t.pi > st.cut
	}

	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cur task // the point this worker runs, named by a panic
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if !panicSet {
						s := sw.Series[cur.si]
						panicked = fmt.Sprintf("runner: sweep %s, series %q, point %d (key %q): %v",
							sw.Name, s.Label, cur.pi, s.Points[cur.pi].Key, p)
						panicSet = true
					}
					mu.Unlock()
					stopFeed()
				}
			}()
			for t := range ch {
				cur = t
				if pruned(t) {
					continue
				}
				p := sw.Series[t.si].Points[t.pi]
				if v, ok := recall[T](r, p.Key); ok {
					complete(t, v, true)
					continue
				}
				v := p.Run()
				remember(r, p.Key, v)
				complete(t, v, false)
			}
		}()
	}
	wg.Wait()
	if panicSet {
		panic(panicked)
	}

	mu.Lock()
	out := make([]SeriesResult[T], len(sw.Series))
	for si, s := range sw.Series {
		st := states[si]
		n := st.contig
		if st.cut >= 0 && st.cut+1 < n {
			n = st.cut + 1
		}
		out[si] = SeriesResult[T]{Label: s.Label, Results: st.results[:n:n]}
	}
	mu.Unlock()
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	return out, nil
}

// RunOne is the single-series convenience form of Run.
func RunOne[T any](ctx context.Context, r *Runner, name string, s Series[T]) ([]T, error) {
	res, err := Run(ctx, r, Sweep[T]{Name: name, Series: []Series[T]{s}})
	return res[0].Results, err
}
