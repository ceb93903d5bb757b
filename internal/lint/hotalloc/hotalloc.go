// Package hotalloc enforces zero-allocation discipline in functions
// annotated //mindgap:noalloc and everything they statically call.
//
// PR 7's 2x throughput win came from making the engine's event path
// allocation-free: typed events instead of closures, pooled requests,
// recycled event boxes. The //mindgap:noalloc directive marks the
// functions that form that path — Engine.Step and the event callbacks
// it fires — and this analyzer rejects the constructs that silently
// put allocations back:
//
//   - the closure-scheduling engine APIs (Engine.At / After /
//     AfterTimer, Link.Send): every call allocates a closure
//     and an adapter event; the typed AtE / AfterE / AtRelayE /
//     AfterTimerE / ArmAfterE / SendT forms exist precisely so hot code
//     never pays that;
//   - closure literals that capture variables (each is a heap
//     allocation per event);
//   - calls into package fmt and conversions to string (both allocate
//     on every call);
//   - interface boxing of non-pointer-shaped values (storing an int or
//     a multi-word struct in an any allocates; pointers, single-pointer
//     structs, and constants do not).
//
// The annotation is transitive within a package: a function reachable
// from an annotated function through static calls or typed-event
// registration inherits the obligation, so the whole fire path is
// covered by annotating its roots. Arguments of panic calls are exempt
// — a panicking simulation is allowed to format its last words.
//
// The dynamic counterpart of this analyzer is the escape-budget gate
// (mindgap-lint -escapes), which asks the compiler to prove the same
// functions free of heap escapes.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"mindgap/internal/lint/allow"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid closure scheduling, capturing closures, fmt/string conversions, and interface boxing in //mindgap:noalloc functions",
	Run:  run,
}

// Directive marks a function as part of the zero-allocation hot path.
// Shared with the escape-budget gate in internal/lint/escapes.
const Directive = "//mindgap:noalloc"

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	scope map[*types.Func]*types.Func // fn -> annotated root (fn itself if annotated)
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:  pass,
		decls: make(map[*types.Func]*ast.FuncDecl),
		scope: make(map[*types.Func]*types.Func),
	}
	var annotated []*types.Func
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.decls[fn] = fd
			if hasDirective(fd.Doc) {
				annotated = append(annotated, fn)
			}
		}
	}
	if len(annotated) == 0 {
		return nil, nil
	}
	sort.Slice(annotated, func(i, j int) bool {
		return c.decls[annotated[i]].Pos() < c.decls[annotated[j]].Pos()
	})

	// Propagate: BFS over static same-package references (calls and
	// typed-event registrations) from the annotated roots. FuncLit
	// bodies are excluded from edge collection — a closure is its own
	// finding, reported where it is created.
	queue := make([]*types.Func, 0, len(annotated))
	for _, fn := range annotated {
		c.scope[fn] = fn
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range c.edges(c.decls[fn]) {
			if _, seen := c.scope[callee]; !seen {
				c.scope[callee] = c.scope[fn]
				queue = append(queue, callee)
			}
		}
	}

	for fn, fd := range c.decls {
		if c.scope[fn] != nil {
			c.check(fn, fd)
		}
	}
	return nil, nil
}

// hasDirective reports whether the doc group contains a
// //mindgap:noalloc line.
func hasDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, cm := range doc.List {
		t := cm.Text
		if t == Directive || strings.HasPrefix(t, Directive+" ") {
			return true
		}
	}
	return false
}

// edges returns the same-package declared functions referenced by the
// body, in source order, skipping closures and panic arguments.
func (c *checker) edges(fd *ast.FuncDecl) []*types.Func {
	var out []*types.Func
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isPanic(c.pass, n) {
				return false
			}
		case *ast.Ident:
			if fn, ok := c.pass.TypesInfo.Uses[n].(*types.Func); ok && c.decls[fn] != nil {
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

func isPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// origin describes why fn carries the obligation, for diagnostics.
func (c *checker) origin(fn *types.Func) string {
	root := c.scope[fn]
	if root == fn {
		return "annotated " + Directive
	}
	return "on the " + Directive + " path via " + root.Name()
}

// closureAPI maps closure-scheduling methods to their typed
// replacements, keyed by "pkgpath.Recv.Method".
var closureAPI = map[string]string{
	"mindgap/internal/sim.Engine.At":         "AtE",
	"mindgap/internal/sim.Engine.After":      "AfterE",
	"mindgap/internal/sim.Engine.AfterTimer": "AfterTimerE",
	"mindgap/internal/fabric.Link.Send":      "SendT",
}

func methodKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Pkg() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
}

func (c *checker) check(fn *types.Func, fd *ast.FuncDecl) {
	why := c.origin(fn)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanic(c.pass, n) {
				return false // a dying simulation may allocate its message
			}
			c.checkCall(n, why)
		case *ast.FuncLit:
			c.checkFuncLit(n, fd, why)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					lt := c.pass.TypesInfo.TypeOf(n.Lhs[i])
					if lt != nil && isInterface(lt) {
						c.checkBox(n.Rhs[i], lt, why)
					}
				}
			}
		case *ast.CompositeLit:
			c.checkCompositeLit(n, why)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr, why string) {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion. string(x) from a non-string operand allocates.
		t := tv.Type
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 && len(call.Args) == 1 {
			at := c.pass.TypesInfo.Types[call.Args[0]]
			if at.Value == nil && at.Type != nil {
				if ab, ok := at.Type.Underlying().(*types.Basic); !ok || ab.Info()&types.IsString == 0 {
					allow.Reportf(c.pass, call.Pos(), "conversion to string allocates (%s)", why)
				}
			}
		}
		return
	}
	var callee *types.Func
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = c.pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = c.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if callee != nil {
		if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
			allow.Reportf(c.pass, call.Pos(), "fmt.%s allocates on every call (%s)", callee.Name(), why)
			return // boxing into its ...any params is subsumed
		}
		if typed, ok := closureAPI[methodKey(callee)]; ok {
			allow.Reportf(c.pass, call.Pos(),
				"%s schedules a closure and allocates; use the typed %s form (%s)",
				callee.Name(), typed, why)
		}
	}
	// Interface boxing at argument positions.
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if isInterface(pt) {
			c.checkBox(arg, pt, why)
		}
	}
}

func (c *checker) checkFuncLit(lit *ast.FuncLit, encl *ast.FuncDecl, why string) {
	var captured []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		if obj.Pos() >= encl.Pos() && obj.Pos() < lit.Pos() {
			seen[obj] = true
			captured = append(captured, obj.Name())
		}
		return true
	})
	if len(captured) == 0 {
		return
	}
	sort.Strings(captured)
	if len(captured) > 3 {
		captured = append(captured[:3], "...")
	}
	allow.Reportf(c.pass, lit.Pos(),
		"closure captures %s and allocates per event; use a typed EventFunc with recv/obj/arg (%s)",
		strings.Join(captured, ", "), why)
}

func (c *checker) checkCompositeLit(lit *ast.CompositeLit, why string) {
	t := c.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	// Through the pointer for &T{...}.
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				id, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				for j := 0; j < u.NumFields(); j++ {
					if f := u.Field(j); f.Name() == id.Name {
						if isInterface(f.Type()) {
							c.checkBox(kv.Value, f.Type(), why)
						}
						break
					}
				}
			} else if i < u.NumFields() {
				if f := u.Field(i); isInterface(f.Type()) {
					c.checkBox(elt, f.Type(), why)
				}
			}
		}
	case *types.Slice:
		if isInterface(u.Elem()) {
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				c.checkBox(elt, u.Elem(), why)
			}
		}
	case *types.Array:
		if isInterface(u.Elem()) {
			for _, elt := range lit.Elts {
				c.checkBox(elt, u.Elem(), why)
			}
		}
	}
}

// checkBox reports if storing expr into an interface-typed slot
// allocates: constants and nil become static data, pointer-shaped
// values are stored inline, everything else boxes on the heap.
func (c *checker) checkBox(expr ast.Expr, _ types.Type, why string) {
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil || tv.IsNil() {
		return
	}
	t := tv.Type
	if isInterface(t) || pointerShaped(t) {
		return
	}
	if c.pass.TypesSizes != nil && c.pass.TypesSizes.Sizeof(t) == 0 {
		return
	}
	allow.Reportf(c.pass, expr.Pos(),
		"%s boxed into an interface allocates; pass a pointer or use the event's scalar arg (%s)",
		types.TypeString(t, types.RelativeTo(c.pass.Pkg)), why)
}

func isInterface(t types.Type) bool {
	// Type parameters' underlying type is their constraint interface,
	// so generics are conservatively skipped too.
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// pointerShaped reports whether t is represented as a single pointer
// word, following the compiler's direct-interface rule: pointers,
// channels, maps, funcs, unsafe.Pointer, and single-field structs /
// length-1 arrays thereof.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	case *types.Interface:
		return true
	}
	return false
}
