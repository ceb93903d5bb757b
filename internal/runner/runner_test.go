package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// meas is a toy measurement with the saturation probe the runner looks for.
type meas struct {
	V   int
	Sat bool
}

func (m meas) IsSaturated() bool { return m.Sat }

// jitterSweep builds a sweep whose points finish in deliberately scrambled
// wall-clock order (later grid indices finish first) so any
// completion-order dependence in the runner would corrupt the output.
func jitterSweep(series, points int) Sweep[meas] {
	sw := Sweep[meas]{Name: "jitter"}
	for si := 0; si < series; si++ {
		s := Series[meas]{Label: fmt.Sprintf("s%d", si)}
		for pi := 0; pi < points; pi++ {
			si, pi := si, pi
			s.Points = append(s.Points, Point[meas]{
				Run: func() meas {
					time.Sleep(time.Duration((points-pi)%5) * time.Millisecond)
					return meas{V: si*1000 + pi}
				},
			})
		}
		sw.Series = append(sw.Series, s)
	}
	return sw
}

// TestRunOrderedAtAnyParallelism is the determinism contract: results are
// keyed by grid index, so -j1 and -jN return identical slices even when
// points complete wildly out of order.
func TestRunOrderedAtAnyParallelism(t *testing.T) {
	sw := jitterSweep(3, 8)
	serial, err := Run(context.Background(), &Runner{Parallelism: 1}, sw)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	for _, par := range []int{2, 8, runtime.GOMAXPROCS(0)} {
		got, err := Run(context.Background(), &Runner{Parallelism: par}, sw)
		if err != nil {
			t.Fatalf("parallel run (j=%d): %v", par, err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("j=%d results differ from serial:\nserial: %+v\nj=%d:    %+v", par, serial, par, got)
		}
	}
	for si, sr := range serial {
		if len(sr.Results) != 8 {
			t.Fatalf("series %d: got %d results, want 8", si, len(sr.Results))
		}
		for pi, m := range sr.Results {
			if m.V != si*1000+pi {
				t.Fatalf("series %d point %d: got %d", si, pi, m.V)
			}
		}
	}
}

// TestStopAfterSaturated checks the truncation rule matches the old serial
// sweep: the series ends at the Nth consecutive saturated point, computed
// on grid-ordered results regardless of completion order.
func TestStopAfterSaturated(t *testing.T) {
	// Saturated at 2 (isolated), then 5,6 (the stopping run), then
	// everything beyond stays saturated but must already be cut.
	sat := map[int]bool{2: true, 5: true, 6: true, 7: true, 8: true, 9: true}
	var ran atomic.Int64
	s := Series[meas]{Label: "curve", StopAfterSaturated: 2}
	for i := 0; i < 10; i++ {
		i := i
		s.Points = append(s.Points, Point[meas]{Run: func() meas {
			ran.Add(1)
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			return meas{V: i, Sat: sat[i]}
		}})
	}
	for _, par := range []int{1, 4} {
		ran.Store(0)
		got, err := RunOne(context.Background(), &Runner{Parallelism: par}, "trunc", s)
		if err != nil {
			t.Fatalf("j=%d: %v", par, err)
		}
		if len(got) != 7 { // indices 0..6: cut lands on the 2nd consecutive saturated point
			t.Fatalf("j=%d: got %d results, want 7 (%+v)", par, len(got), got)
		}
		for i, m := range got {
			if m.V != i {
				t.Fatalf("j=%d: out of order at %d: %+v", par, i, got)
			}
		}
		if par == 1 && ran.Load() != 7 {
			// Serial execution must prune everything past the cut.
			t.Fatalf("j=1: ran %d points, want 7", ran.Load())
		}
	}
}

// TestCancellationPartialPrefix cancels mid-sweep and checks the contract:
// Run returns ctx.Err(), each series holds a correctly-ordered contiguous
// prefix, and no worker goroutines are left behind.
func TestCancellationPartialPrefix(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	var once sync.Once
	const n = 12
	s := Series[meas]{Label: "curve"}
	for i := 0; i < n; i++ {
		i := i
		s.Points = append(s.Points, Point[meas]{Run: func() meas {
			if i >= 3 {
				// Cancel while points are in flight, then let them finish:
				// the runner must wait for them, not abandon them.
				once.Do(cancel)
				<-gate
			}
			return meas{V: i}
		}})
	}
	go func() {
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond)
		close(gate)
	}()

	got, err := RunOne(ctx, &Runner{Parallelism: 2}, "cancel", s)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) == 0 || len(got) >= n {
		t.Fatalf("got %d results, want a non-empty strict prefix of %d", len(got), n)
	}
	for i, m := range got {
		if m.V != i {
			t.Fatalf("prefix out of order at %d: %+v", i, got)
		}
	}

	// All workers and the feeder must have exited.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCacheRoundTrip runs the same keyed sweep twice against one on-disk
// cache: the second run must not execute any point and must return
// identical results.
func TestCacheRoundTrip(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	mk := func() Sweep[meas] {
		s := Series[meas]{Label: "curve"}
		for i := 0; i < 6; i++ {
			i := i
			s.Points = append(s.Points, Point[meas]{
				Key: fmt.Sprintf("cache-test|i=%d", i),
				Run: func() meas { ran.Add(1); return meas{V: i * i} },
			})
		}
		return Sweep[meas]{Name: "cached", Series: []Series[meas]{s}}
	}

	first, err := Run(context.Background(), &Runner{Parallelism: 4, Cache: cache}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 6 {
		t.Fatalf("first run executed %d points, want 6", ran.Load())
	}

	var cachedEvents atomic.Int64
	rn := &Runner{Parallelism: 4, Cache: cache, Progress: func(ev Event) {
		if ev.Cached {
			cachedEvents.Add(1)
		}
	}}
	second, err := Run(context.Background(), rn, mk())
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 6 {
		t.Fatalf("second run executed %d extra points, want 0", ran.Load()-6)
	}
	if cachedEvents.Load() != 6 {
		t.Fatalf("second run reported %d cached events, want 6", cachedEvents.Load())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached results differ:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if hits, misses, _ := cache.Stats(); hits != 6 || misses != 6 {
		t.Fatalf("stats = %d hits / %d misses, want 6/6", hits, misses)
	}

	// Empty keys bypass the cache entirely.
	uncached := Sweep[meas]{Name: "uncached", Series: []Series[meas]{{
		Points: []Point[meas]{{Run: func() meas { ran.Add(1); return meas{V: 99} }}},
	}}}
	if _, err := Run(context.Background(), &Runner{Cache: cache}, uncached); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 7 {
		t.Fatalf("keyless point was not executed")
	}
}

// TestMemoMeasuresEachKeyOncePerRunner: sweeps run on one Runner share its
// memo — a key measured by an earlier sweep is served (and reported Cached)
// without running or touching the disk cache; keyless points always run; a
// fresh Runner starts empty and falls back to the disk cache; and another
// row type under the same key is a miss there too.
func TestMemoMeasuresEachKeyOncePerRunner(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ran, cached atomic.Int64
	rn := &Runner{Parallelism: 1, Cache: cache, Progress: func(ev Event) {
		if ev.Cached {
			cached.Add(1)
		}
	}}
	point := func(key string, v int) Point[meas] {
		return Point[meas]{Key: key, Run: func() meas { ran.Add(1); return meas{V: v} }}
	}
	run := func(rn *Runner, pts ...Point[meas]) []meas {
		t.Helper()
		got, err := RunOne(context.Background(), rn, "memo", Series[meas]{Points: pts})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	run(rn, point("a", 1), point("b", 2), point("", 3))
	// The shared keys come back as first measured, whatever this sweep's
	// closures would have returned.
	got := run(rn, point("b", -2), point("c", 4), point("a", -1), point("", 5))
	if want := []meas{{V: 2}, {V: 4}, {V: 1}, {V: 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("second sweep = %+v, want %+v", got, want)
	}
	if ran.Load() != 5 || cached.Load() != 2 {
		t.Fatalf("ran %d points with %d served, want 5 and 2", ran.Load(), cached.Load())
	}
	if hits, misses, _ := cache.Stats(); hits != 0 || misses != 3 {
		t.Fatalf("disk cache saw %d hits / %d misses, want 0/3 (the memo answers first)", hits, misses)
	}

	// A fresh Runner on the same cache: nothing memoised, everything on disk.
	before := ran.Load()
	if got := run(&Runner{Cache: cache}, point("c", -4)); got[0].V != 4 || ran.Load() != before {
		t.Fatalf("fresh runner: got %+v after %d runs", got[0], ran.Load()-before)
	}

	// Another row type under the same key, on a fresh Runner and the same
	// disk cache: its point runs. meas's JSON would decode into it, so only
	// the type in the entry name keeps the two apart.
	type other struct{ V int }
	var otherRan bool
	got2, err := RunOne(context.Background(), &Runner{Cache: cache}, "other", Series[other]{Points: []Point[other]{
		{Key: "a", Run: func() other { otherRan = true; return other{V: 7} }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !otherRan || got2[0].V != 7 {
		t.Fatalf("another row type under key \"a\" was served %+v instead of running", got2[0])
	}
}

// TestPointPanicPropagates ensures a panicking point surfaces to the
// caller after the pool drains, rather than crashing a bare goroutine, and
// names the point that broke.
func TestPointPanicPropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	s := Series[meas]{Label: "curve", Points: []Point[meas]{
		{Run: func() meas { return meas{V: 1} }},
		{Key: "k2", Run: func() meas { panic("boom") }},
		{Run: func() meas { return meas{V: 3} }},
	}}
	func() {
		defer func() {
			want := `runner: sweep panic, series "curve", point 1 (key "k2"): boom`
			if p := recover(); p != want {
				t.Fatalf("recovered %v, want %s", p, want)
			}
		}()
		_, _ = RunOne(context.Background(), &Runner{Parallelism: 2}, "panic", s)
		t.Fatal("RunOne returned instead of panicking")
	}()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after panic: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNilRunner checks the documented nil-Runner convenience.
func TestNilRunner(t *testing.T) {
	got, err := RunOne(context.Background(), nil, "nil", Series[meas]{
		Points: []Point[meas]{{Run: func() meas { return meas{V: 42} }}},
	})
	if err != nil || len(got) != 1 || got[0].V != 42 {
		t.Fatalf("got %+v, %v", got, err)
	}
}

// sweepOf builds a one-series sweep.
func sweepOf(name string, pts ...Point[meas]) Sweep[meas] {
	return Sweep[meas]{Name: name, Series: []Series[meas]{{Label: name, Points: pts}}}
}

// TestConcurrentSweepsShareSlots: two sweeps running at once on one
// Runner share its Parallelism slots — never more than 2 points run at
// once — and both complete in grid order.
func TestConcurrentSweepsShareSlots(t *testing.T) {
	var cur, peak atomic.Int64
	mk := func(name string) Sweep[meas] {
		var pts []Point[meas]
		for i := 0; i < 8; i++ {
			pts = append(pts, Point[meas]{Run: func() meas {
				n := cur.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				return meas{V: i}
			}})
		}
		return sweepOf(name, pts...)
	}
	rn := &Runner{Parallelism: 2}
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := RunOne(context.Background(), rn, name, mk(name).Series[0])
			if err != nil || len(got) != 8 {
				t.Errorf("sweep %s: %d results, err %v", name, len(got), err)
				return
			}
			for i, m := range got {
				if m.V != i {
					t.Errorf("sweep %s out of order at %d: %+v", name, i, got)
				}
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d points ran at once on a Runner with 2 slots", p)
	}
	if st := rn.Stats(); st.Ran != 16 {
		t.Fatalf("stats %+v, want 16 run", st)
	}
}

// TestSharedKeyRunsOnceAcrossSweeps: a keyed point that one sweep is
// running when another sweep asks for it runs once; the second sweep
// waits for it as a twin and gets the same result.
func TestSharedKeyRunsOnceAcrossSweeps(t *testing.T) {
	rn := &Runner{Parallelism: 2}
	var runs atomic.Int64
	var once sync.Once
	started, release := make(chan struct{}), make(chan struct{})
	shared := Point[meas]{Key: "shared", Run: func() meas {
		runs.Add(1)
		once.Do(func() { close(started) })
		<-release
		return meas{V: 7}
	}}
	got := make([][]meas, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	runSweep := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = RunOne(context.Background(), rn, fmt.Sprint("s", i), Series[meas]{Points: []Point[meas]{shared}})
		}()
	}
	runSweep(0)
	<-started
	runSweep(1)
	for deadline := time.Now().Add(2 * time.Second); rn.Stats().Twins == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatalf("second sweep never waited on the first one's flight: %+v", rn.Stats())
		}
	}
	close(release)
	wg.Wait()
	for i := range got {
		if errs[i] != nil || len(got[i]) != 1 || got[i][0].V != 7 {
			t.Fatalf("sweep %d: %+v, %v", i, got[i], errs[i])
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("shared key ran %d times, want 1", n)
	}
	if st := rn.Stats(); st.Ran != 1 || st.Twins != 1 {
		t.Fatalf("stats %+v, want 1 run and 1 twin wait", st)
	}
}

// TestSaturatingSeriesBesideSafeWork: with a point of another series that
// no cut can prune available, a free slot never speculates past a
// possible cut. The safe series' points are held until the saturated
// point has been filed, so the second slot has no idle moment to excuse
// speculation.
func TestSaturatingSeriesBesideSafeWork(t *testing.T) {
	var once sync.Once
	cutKnown := make(chan struct{})
	rn := &Runner{Parallelism: 2, Progress: func(ev Event) {
		if ev.Series == "sat" && ev.Index == 0 {
			once.Do(func() { close(cutKnown) })
		}
	}}
	var satRan atomic.Int64
	sat := Series[meas]{Label: "sat", StopAfterSaturated: 1}
	safe := Series[meas]{Label: "safe"}
	for i := 0; i < 4; i++ {
		sat.Points = append(sat.Points, Point[meas]{Run: func() meas {
			satRan.Add(1)
			time.Sleep(5 * time.Millisecond)
			return meas{V: i, Sat: true}
		}})
		safe.Points = append(safe.Points, Point[meas]{Run: func() meas {
			<-cutKnown
			return meas{V: i}
		}})
	}
	res, err := Run(context.Background(), rn, Sweep[meas]{Name: "mixed", Series: []Series[meas]{sat, safe}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Results) != 1 || len(res[1].Results) != 4 {
		t.Fatalf("got %d and %d results, want 1 and 4", len(res[0].Results), len(res[1].Results))
	}
	if n := satRan.Load(); n != 1 {
		t.Fatalf("the saturating series ran %d points, want 1 (its cut)", n)
	}
	if st := rn.Stats(); st.PrunedAfterStart != 0 || st.PrunedBeforeStart != 3 || st.Ran != 5 {
		t.Fatalf("stats %+v, want 5 run, 3 pruned before start, 0 after", st)
	}
}

// TestConcurrentSweepsCancel cancels two sweeps sharing keys on one
// Runner mid-run: each returns context.Canceled with an ordered prefix,
// no key runs twice, and no goroutine is left behind.
func TestConcurrentSweepsCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	go func() {
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond)
		close(gate)
	}()
	var mu sync.Mutex
	runs := map[string]int{}
	const n = 12
	var pts []Point[meas]
	for i := 0; i < n; i++ {
		key := fmt.Sprint("k", i)
		pts = append(pts, Point[meas]{Key: key, Run: func() meas {
			mu.Lock()
			runs[key]++
			mu.Unlock()
			if i >= 3 {
				cancel()
				<-gate
			}
			return meas{V: i}
		}})
	}
	rn := &Runner{Parallelism: 2}
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := RunOne(ctx, rn, name, Series[meas]{Points: pts})
			if err != context.Canceled || len(got) >= n {
				t.Errorf("sweep %s: %d results, err %v; want a strict prefix and context.Canceled", name, len(got), err)
			}
			for i, m := range got {
				if m.V != i {
					t.Errorf("sweep %s: prefix out of order at %d: %+v", name, i, got)
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	for key, k := range runs {
		if k > 1 {
			t.Errorf("key %s ran %d times", key, k)
		}
	}
	mu.Unlock()
	if st := rn.Stats(); st.Ran+st.Memo+st.Twins == 0 {
		t.Fatalf("no point was claimed: %+v", st)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
	}
}

// TestCacheWriteErrorsCounted: a cache whose directory can no longer be
// written still serves the run — every point is measured — and counts
// each failed write.
func TestCacheWriteErrorsCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A file where the directory was: writable by no user, root included.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o444); err != nil {
		t.Fatal(err)
	}
	var pts []Point[meas]
	for i := 0; i < 3; i++ {
		pts = append(pts, Point[meas]{Key: fmt.Sprint("w", i), Run: func() meas { return meas{V: i} }})
	}
	got, err := RunOne(context.Background(), &Runner{Cache: cache}, "unwritable", Series[meas]{Points: pts})
	if err != nil || len(got) != 3 {
		t.Fatalf("got %+v, %v", got, err)
	}
	if hits, misses, writeErrs := cache.Stats(); hits != 0 || misses != 3 || writeErrs != 3 {
		t.Fatalf("stats = %d hits, %d misses, %d write errors; want 0, 3, 3", hits, misses, writeErrs)
	}
}
