package escapes

import (
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// funcs parses src as the file rel of package pkgPath and returns its
// annotated functions.
func funcs(t *testing.T, pkgPath, rel, src string) []fn {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fileFuncs(fset, f, pkgPath, rel)
}

// TestFuncKeys pins the key of each receiver shape the tree annotates:
// a generic method drops its type parameters, a value receiver has no
// star, and an unannotated function has no key at all.
func TestFuncKeys(t *testing.T) {
	const src = `package core

//mindgap:noalloc
func (r *Recovery[K, T]) judge(k K, t T, worker int) int { return worker }

//mindgap:noalloc
func (t Time) Add(d Duration) Time { return t + Time(d) }

//mindgap:noalloc
func (p Pair[A, B]) First() A { return p.a }

//mindgap:noalloc
func steerHash(id uint64) uint64 { return id }

// alloc must allocate, so it stays unannotated.
func (e *Engine) alloc() *event { return &event{} }
`
	var got []string
	for _, f := range funcs(t, "mindgap/internal/core", "internal/core/x.go", src) {
		got = append(got, f.key)
	}
	want := []string{
		"mindgap/internal/core.(*Recovery).judge",
		"mindgap/internal/core.Time.Add",
		"mindgap/internal/core.Pair.First",
		"mindgap/internal/core.steerHash",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keys = %q, want %q", got, want)
	}
}

// TestCount feeds real `go build -gcflags=-m` diagnostics — from seeding
// each construct into the tree, with positions renumbered to the
// miniature sources here — through the attribution rules.
func TestCount(t *testing.T) {
	cases := []struct {
		name, pkg, file, src string
		diags                string
		want                 map[string]int
	}{{
		name: "func literal",
		pkg:  "mindgap/internal/cores",
		file: "internal/cores/host.go",
		src: `package cores

//mindgap:noalloc
func (w *Worker) PostSlice(req *task.Request, delay time.Duration) {
	gen := req.Gen
	w.h.eng.After(w.Exec.cfg.Slice+delay, func() {
		if w.Exec.Current() == req && req.Gen == gen {
			w.Exec.Interrupt()
		}
	})
}
`,
		diags: `internal/cores/host.go:6:40: can inline (*Worker).PostSlice.func1
internal/cores/host.go:7:20: inlining call to (*Exec).Current
internal/cores/host.go:4:7: leaking param content: w
internal/cores/host.go:4:28: leaking param: req
internal/cores/host.go:6:40: func literal escapes to heap`,
		want: map[string]int{"mindgap/internal/cores.(*Worker).PostSlice": 1},
	}, {
		name: "fmt boxes its arguments",
		pkg:  "mindgap/internal/core",
		file: "internal/core/offload.go",
		src: `package core

//mindgap:noalloc
func (s *Offload) dropDegraded(f nicmodel.Frame, worker int, reason trace.DropReason) {
	if req, deg := frameReq(f); deg {
		s.lastDrop = fmt.Sprint("degraded ", req.ID, " on ", worker)
		s.pr.Drop(s.eng.Now(), req.ID, worker, reason)
	}
}
`,
		diags: `internal/core/offload.go:5:25: inlining call to frameReq
internal/core/offload.go:7:22: inlining call to sim.(*Engine).Now
internal/core/offload.go:6:26: ... argument does not escape
internal/core/offload.go:6:27: "degraded " escapes to heap
internal/core/offload.go:6:43: req.ID escapes to heap
internal/core/offload.go:6:48: " on " escapes to heap
internal/core/offload.go:6:56: worker escapes to heap`,
		want: map[string]int{"mindgap/internal/core.(*Offload).dropDegraded": 4},
	}, {
		name: "string conversion",
		pkg:  "mindgap/internal/core",
		file: "internal/core/offload.go",
		src: `package core

//mindgap:noalloc
func (s *Offload) steerDegraded(req *task.Request) {
	var buf [40]byte
	for i := range buf {
		buf[i] = byte('a' + (req.ID+uint64(i))%26)
	}
	s.lastSteer = string(buf[:])
}
`,
		diags: `internal/core/offload.go:4:33: leaking param: req
internal/core/offload.go:8:22: string(buf[:]) escapes to heap`,
		want: map[string]int{"mindgap/internal/core.(*Offload).steerDegraded": 1},
	}, {
		name: "boxed struct",
		pkg:  "mindgap/internal/core",
		file: "internal/core/central.go",
		src: `package core

//mindgap:noalloc
func (c *Central) handle(ev qEvent) {
	for _, a := range c.lgc.EnqueueTo(c.asScratch[:0], c.eng.Now(), ev.req) {
		c.down[a.Worker].SendT(0, centralDeliverBoxed, c.host.Workers[a.Worker], a, 0)
	}
}
`,
		diags: `internal/core/central.go:5:56: inlining call to sim.(*Engine).Now
internal/core/central.go:4:7: leaking param content: c
internal/core/central.go:4:26: leaking param: ev
internal/core/central.go:6:76: a escapes to heap`,
		want: map[string]int{"mindgap/internal/core.(*Central).handle": 1},
	}, {
		name: "panic arguments are exempt",
		pkg:  "mindgap/internal/core",
		file: "internal/core/logic.go",
		src: `package core

//mindgap:noalloc
func (l *Logic) release(w int) {
	if l.outstanding[w] <= 0 {
		panic(fmt.Sprintf("core: credit underflow on worker %d",
			w))
	}
	l.outstanding[w]--
}
`,
		diags: `internal/core/logic.go:6:20: fmt.Sprintf("core: credit underflow on worker %d", ... argument...) escapes to heap
internal/core/logic.go:6:20: ... argument does not escape
internal/core/logic.go:7:4: w escapes to heap`,
		want: map[string]int{"mindgap/internal/core.(*Logic).release": 0},
	}, {
		name: "inlined callee escapes count at the callee",
		pkg:  "mindgap/internal/sim",
		file: "internal/sim/sim.go",
		src: `package sim

//mindgap:noalloc
func (e *Engine) AtE(t Time, fn EventFunc, recv, obj any, arg uint64) {
	e.schedule(e.alloc(t, fn, recv, obj, arg))
}

//mindgap:noalloc
func (e *Engine) alloc(t Time, fn EventFunc, recv, obj any, arg uint64) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
	} else {
		ev = &event{}
	}
	return ev
}
`,
		diags: `internal/sim/sim.go:5:20: inlining call to (*Engine).alloc
internal/sim/sim.go:5:20: &event{} escapes to heap
internal/sim/sim.go:14:8: &event{} escapes to heap`,
		want: map[string]int{
			"mindgap/internal/sim.(*Engine).AtE":   0,
			"mindgap/internal/sim.(*Engine).alloc": 1,
		},
	}, {
		name: "shape-instantiation repeats count once",
		pkg:  "mindgap/internal/core",
		file: "internal/core/recovery.go",
		src: `package core

//mindgap:noalloc
func (r *Recovery[K, T]) judge(k K, t T, worker int, v Verdict) (Verdict, int) {
	a := r.recs[k]
	if v == Retry {
		lastJudge = fmt.Sprint("retry ", k, " on ", worker)
	}
	return v, int(a.slot)
}
`,
		diags: `internal/core/recovery.go:7:25: ... argument does not escape
internal/core/recovery.go:7:26: "retry " escapes to heap
internal/core/recovery.go:7:36: k escapes to heap
internal/core/recovery.go:7:39: " on " escapes to heap
internal/core/recovery.go:7:47: worker escapes to heap
internal/core/recovery.go:7:26: "retry " escapes to heap
internal/core/recovery.go:7:36: core.k escapes to heap
internal/core/recovery.go:7:39: " on " escapes to heap
internal/core/recovery.go:7:47: core.worker escapes to heap
./internal/core/recovery.go:7:36: core.k escapes to heap
./internal/core/recovery.go:7:47: core.worker escapes to heap`,
		want: map[string]int{"mindgap/internal/core.(*Recovery).judge": 4},
	}, {
		name: "clean function is an explicit zero; unannotated escapes are ignored",
		pkg:  "mindgap/internal/sim",
		file: "internal/sim/sim.go",
		src: `package sim

//mindgap:noalloc
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

func NewEngine() *Engine {
	return &Engine{}
}
`,
		diags: `internal/sim/sim.go:4:6: can inline Time.Add
internal/sim/sim.go:7:9: &Engine{} escapes to heap
internal/sim/other.go:4:9: &event{} escapes to heap`,
		want: map[string]int{"mindgap/internal/sim.Time.Add": 0},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := count(funcs(t, tc.pkg, tc.file, tc.src), tc.diags)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("count = %v, want %v", got, tc.want)
			}
		})
	}
}
