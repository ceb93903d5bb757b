// Package poolsafe detects use-after-release hazards on pooled
// task.Request values.
//
// PR 7 pooled requests: the instant a response reaches the client the
// request is recycled (task.Pool.Put bumps Gen and hands the struct to
// the next arrival). Any event that can fire after that instant — a
// FINISH notification crossing the NIC, a dispatch-timeout timer — must
// not re-read the request's identity fields (ID, ClientID, Key,
// Arrival, Service): it would observe a different logical request. The
// incident that motivated this analyzer leaked flight-control credits
// until the run stalled, and was only caught dynamically under fault
// presets.
//
// The analyzer enforces these rules in simulation packages:
//
//  1. Immediate release: after a request is passed to task.Pool.Put or
//     delivered through a func(*task.Request)-typed value (the done /
//     sink / onComplete ownership-transfer convention), later reads of
//     its identity fields in the same block are flagged.
//
//  2. Deferred release: when one function schedules the same request
//     into two typed events and one of the callbacks (transitively)
//     releases it, the other callback races the release. Reads of
//     identity fields inside that callback are flagged unless the read
//     is dominated by a generation guard (an if whose condition
//     compares req.Gen) — snapshot the value into the event's scalar
//     arg at build time instead. This is the exact PR-7 credit-leak
//     shape: the response path recycled the request before the FINISH
//     notification was processed.
//
//     The release may also sit behind the host-worker kit
//     (internal/cores.Host), which sends the response and only then
//     calls the model's hook: a function shaped like a kit hook —
//     it takes a *cores.Worker and a *task.Request — is treated as if
//     it had itself scheduled the releasing respond event, so every
//     callback it schedules with that request is held to the same rule.
//
//  3. Snapshot shadowing: a struct that carries both a *task.Request
//     and a build-time snapshot of one of its identity fields (qEvent's
//     id, flight's arrival/service/clientID/key) exists precisely
//     because the pointer may be stale when the struct is consumed.
//     Re-deriving the value through the pointer instead of reading the
//     snapshot is flagged everywhere.
//
// The analysis is intra-package and flow-insensitive across events by
// design: simulated time, not lexical order, decides which event fires
// first, so any pairing of a releasing and a non-releasing capture is a
// hazard.
package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"mindgap/internal/lint/allow"
	"mindgap/internal/lint/simpkg"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolsafe",
	Doc:  "flag reads of pooled task.Request identity fields that can race the request's release back to the pool",
	Run:  run,
}

const (
	taskPkg  = "mindgap/internal/task"
	coresPkg = "mindgap/internal/cores"
)

// identity are the task.Request fields that name the logical request.
// They are only meaningful while the request is live: Pool.Get rewrites
// every one of them for the next arrival.
var identity = map[string]bool{
	"ID":       true,
	"ClientID": true,
	"Key":      true,
	"Arrival":  true,
	"Service":  true,
}

// isPtrTo reports whether t is a pointer to the named type pkg.name.
func isPtrTo(t types.Type, pkg, name string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}

// isReqPtr reports whether t is *task.Request.
func isReqPtr(t types.Type) bool { return isPtrTo(t, taskPkg, "Request") }

// isKitHook reports whether fn has the shape of a host-worker kit hook:
// it receives the *cores.Worker a request ran on. The kit calls its
// Finished hook after putting the response on the wire, so the request
// such a function receives may be recycled before anything it schedules
// fires.
func isKitHook(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isPtrTo(params.At(i).Type(), coresPkg, "Worker") {
			return true
		}
	}
	return false
}

// isEventShaped reports whether fn has the sim.EventFunc signature
// func(recv, obj any, arg uint64) — the typed-event callback shape.
func isEventShaped(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	if sig.Params().Len() != 3 || sig.Results().Len() != 0 || sig.Variadic() {
		return false
	}
	for i := 0; i < 2; i++ {
		it, ok := sig.Params().At(i).Type().Underlying().(*types.Interface)
		if !ok || it.NumMethods() != 0 {
			return false
		}
	}
	b, ok := sig.Params().At(2).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
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

// walkStack traverses root keeping the ancestor stack; fn returning
// false prunes the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// capture records one event-build site that carries a request payload:
// cb is the scheduled callback, obj the request's object.
type capture struct {
	cb   *types.Func
	obj  types.Object
	call *ast.CallExpr
}

type checker struct {
	pass       *analysis.Pass
	decls      map[*types.Func]*ast.FuncDecl // every func/method declared in the package
	eventDecls map[*types.Func]*ast.FuncDecl // package-level EventFunc-shaped subset
	relParam   map[*types.Func]int8          // releasesParam memo: 0 unknown, 1 yes, -1 no/in-progress
	tainted    map[*types.Func]map[types.Object]bool
	captures   map[*types.Func][]capture
	releasing  map[*types.Func]bool
}

func run(pass *analysis.Pass) (any, error) {
	if !simpkg.IsSimPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	c := &checker{
		pass:       pass,
		decls:      make(map[*types.Func]*ast.FuncDecl),
		eventDecls: make(map[*types.Func]*ast.FuncDecl),
		relParam:   make(map[*types.Func]int8),
		tainted:    make(map[*types.Func]map[types.Object]bool),
		captures:   make(map[*types.Func][]capture),
		releasing:  make(map[*types.Func]bool),
	}
	var order []*types.Func // decls in file/position order, for deterministic walks
	for _, f := range pass.Files {
		if c.testFile(f.Pos()) {
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
			order = append(order, fn)
			if fd.Recv == nil && isEventShaped(fn) {
				c.eventDecls[fn] = fd
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return c.decls[order[i]].Pos() < c.decls[order[j]].Pos() })

	for _, fn := range order {
		c.tainted[fn] = c.taintedObjs(c.decls[fn])
		c.captures[fn] = c.collectCaptures(c.decls[fn], c.tainted[fn])
	}

	// Classify releasing callbacks: direct release of the tainted
	// payload, then a fixpoint over capture edges (a callback that
	// schedules its payload into a releasing callback releases it too,
	// just later in simulated time).
	for fn, fd := range c.eventDecls {
		if c.directlyReleases(fd.Body, c.tainted[fn]) {
			c.releasing[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range c.eventDecls {
			if c.releasing[fn] {
				continue
			}
			for _, cap := range c.captures[fn] {
				if c.tainted[fn][cap.obj] && c.releasing[cap.cb] {
					c.releasing[fn] = true
					changed = true
					break
				}
			}
		}
	}

	// Rule 2: pair releasing and non-releasing captures of one request
	// in one function; the non-releasing callback races the release.
	type witness struct {
		race string // what releases the request, and where both were scheduled
		pos  token.Pos
	}
	hazardous := map[*types.Func]witness{}
	for _, fn := range order {
		byObj := map[types.Object][]capture{}
		for _, cap := range c.captures[fn] {
			byObj[cap.obj] = append(byObj[cap.obj], cap)
		}
		for _, caps := range byObj {
			race := ""
			for i := range caps {
				if c.releasing[caps[i].cb] {
					race = caps[i].cb.Name() + " releases the request back to the pool (both are scheduled in " + fn.Name() + ")"
					break
				}
			}
			if race == "" && isKitHook(fn) {
				race = "the host-worker kit's respond event releases the request back to the pool (" + fn.Name() + " is a kit hook: the response is already on the wire when it runs)"
			}
			if race == "" {
				continue
			}
			for _, cap := range caps {
				if c.releasing[cap.cb] {
					continue
				}
				w, ok := hazardous[cap.cb]
				if !ok || cap.call.Pos() < w.pos {
					hazardous[cap.cb] = witness{race: race, pos: cap.call.Pos()}
				}
			}
		}
	}
	for cb, w := range hazardous {
		fd := c.eventDecls[cb]
		if fd == nil {
			continue
		}
		tainted := c.tainted[cb]
		walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !c.identityRead(sel, tainted) || isWrite(sel, stack) || genGuarded(c.pass, stack, tainted) {
				return true
			}
			allow.Reportf(c.pass, sel.Pos(),
				"read of recyclable field %s in event callback %s, which can fire after %s; snapshot the field into the event arg at build time or guard the read with a Gen compare",
				sel.Sel.Name, cb.Name(), w.race)
			return true
		})
	}

	// Rule 1: identity reads lexically after an immediate release in the
	// same block.
	for _, fn := range order {
		c.checkImmediate(c.decls[fn], c.tainted[fn])
	}

	// Rule 3: re-deriving a snapshotted field through the request
	// pointer.
	for _, fn := range order {
		c.checkSnapshotShadow(c.decls[fn])
	}
	return nil, nil
}

func (c *checker) testFile(pos token.Pos) bool {
	return strings.HasSuffix(c.pass.Fset.Position(pos).Filename, "_test.go")
}

// calleeFunc resolves a call to the static *types.Func it invokes, or
// nil for dynamic calls through func-typed values.
func (c *checker) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := c.pass.TypesInfo.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// releaseArg returns the request-valued argument expression of a
// release call: task.Pool.Put, or an indirect call through a
// func(*task.Request) value (the done/sink delivery convention).
func (c *checker) releaseArg(call *ast.CallExpr) (ast.Expr, string) {
	if fn := c.calleeFunc(call); fn != nil {
		if fn.Name() == "Put" && fn.Pkg() != nil && fn.Pkg().Path() == taskPkg && len(call.Args) == 1 {
			return call.Args[0], "Pool.Put"
		}
		return nil, ""
	}
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil, ""
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 || sig.Variadic() {
		return nil, ""
	}
	if !isReqPtr(sig.Params().At(0).Type()) || len(call.Args) != 1 {
		return nil, ""
	}
	return call.Args[0], "the delivery callback"
}

// reqObjOf resolves an expression to the object of a request it
// denotes: a *task.Request ident, a tainted any-typed ident, or a type
// assertion over one.
func (c *checker) reqObjOf(e ast.Expr, tainted map[types.Object]bool) types.Object {
	e = unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok && ta.Type != nil {
		if t, ok := c.pass.TypesInfo.Types[ta.Type]; !ok || !isReqPtr(t.Type) {
			return nil
		}
		e = unparen(ta.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	if isReqPtr(obj.Type()) || tainted[obj] {
		return obj
	}
	return nil
}

// taintedObjs returns the objects that carry the function's request
// payload: for EventFunc-shaped callbacks the recv/obj parameters plus
// locals assigned from type assertions or aliases over them; for plain
// functions and methods, every *task.Request parameter.
func (c *checker) taintedObjs(fd *ast.FuncDecl) map[types.Object]bool {
	t := map[types.Object]bool{}
	fn := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	sig := fn.Type().(*types.Signature)
	if c.eventDecls[fn] != nil {
		for i := 0; i < 2; i++ {
			if p := sig.Params().At(i); p.Name() != "" && p.Name() != "_" {
				t[p] = true
			}
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); isReqPtr(p.Type()) {
			t[p] = true
		}
	}
	// Forward propagation through := assertions and aliases. One pass in
	// source order suffices for the straight-line prologue idiom
	// (req := obj.(*task.Request)).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lhs, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			def := c.pass.TypesInfo.Defs[lhs]
			if def == nil {
				def = c.pass.TypesInfo.Uses[lhs]
			}
			if def == nil || !isReqPtr(def.Type()) {
				continue
			}
			if obj := c.reqObjOf(rhs, t); obj != nil {
				t[def] = true
			}
		}
		return true
	})
	return t
}

// collectCaptures finds calls that schedule a package-level EventFunc
// together with a request payload — AtE/AfterE/ArmAfterE, Link.SendT and
// SendAtT, and any wrapper with the same argument convention.
func (c *checker) collectCaptures(fd *ast.FuncDecl, tainted map[types.Object]bool) []capture {
	var out []capture
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var cb *types.Func
		for _, a := range call.Args {
			id, ok := unparen(a).(*ast.Ident)
			if !ok {
				continue
			}
			if f, ok := c.pass.TypesInfo.Uses[id].(*types.Func); ok && c.eventDecls[f] != nil {
				cb = f
				break
			}
		}
		if cb == nil {
			return true
		}
		for _, a := range call.Args {
			if obj := c.reqObjOf(a, tainted); obj != nil {
				out = append(out, capture{cb: cb, obj: obj, call: call})
			}
		}
		return true
	})
	return out
}

// directlyReleases reports whether the body passes a tainted request to
// a release call, directly or through a same-package helper that
// releases its parameter.
func (c *checker) directlyReleases(body *ast.BlockStmt, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if arg, _ := c.releaseArg(call); arg != nil && c.reqObjOf(arg, tainted) != nil {
			found = true
			return false
		}
		if fn := c.calleeFunc(call); fn != nil && c.decls[fn] != nil && c.releasesParam(fn) {
			for _, a := range call.Args {
				if c.reqObjOf(a, tainted) != nil {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// releasesParam reports whether a declared function releases one of its
// *task.Request parameters (directly or via another such helper).
// Cycles resolve to false.
func (c *checker) releasesParam(fn *types.Func) bool {
	if v, ok := c.relParam[fn]; ok {
		return v == 1
	}
	c.relParam[fn] = -1 // in progress / assumed false
	fd := c.decls[fn]
	if fd == nil {
		return false
	}
	params := map[types.Object]bool{}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); isReqPtr(p.Type()) {
			params[p] = true
		}
	}
	if len(params) == 0 {
		return false
	}
	if c.directlyReleases(fd.Body, params) {
		c.relParam[fn] = 1
		return true
	}
	return false
}

// identityRead reports whether sel reads an identity field of a tainted
// request (req.ID, obj.(*task.Request).Arrival, ...).
func (c *checker) identityRead(sel *ast.SelectorExpr, tainted map[types.Object]bool) bool {
	if !identity[sel.Sel.Name] {
		return false
	}
	s := c.pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return false
	}
	f := s.Obj()
	if f.Pkg() == nil || f.Pkg().Path() != taskPkg {
		return false
	}
	return c.reqObjOf(sel.X, tainted) != nil
}

// isWrite reports whether sel is the target of an assignment.
func isWrite(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, l := range as.Lhs {
		if unparen(l) == ast.Expr(sel) {
			return true
		}
	}
	return false
}

// genGuarded reports whether an enclosing if condition compares the Gen
// field of a tainted request — the pool's recycling detector.
func genGuarded(pass *analysis.Pass, stack []ast.Node, tainted map[types.Object]bool) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Gen" {
				return true
			}
			if id, ok := unparen(sel.X).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && (tainted[obj] || isReqPtr(obj.Type())) {
					guarded = true
					return false
				}
			}
			return true
		})
		if guarded {
			return true
		}
	}
	return false
}

// checkImmediate flags identity reads that lexically follow a release
// of the same request within the release's enclosing block.
func (c *checker) checkImmediate(fd *ast.FuncDecl, tainted map[types.Object]bool) {
	type rel struct {
		obj   types.Object
		what  string
		after token.Pos // end of the release call
		until token.Pos // end of its enclosing block
	}
	var rels []rel
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		arg, what := c.releaseArg(call)
		if arg == nil {
			return true
		}
		obj := c.reqObjOf(arg, tainted)
		if obj == nil {
			return true
		}
		until := fd.Body.End()
		for i := len(stack) - 1; i >= 0; i-- {
			if b, ok := stack[i].(*ast.BlockStmt); ok {
				until = b.End()
				break
			}
		}
		rels = append(rels, rel{obj: obj, what: what, after: call.End(), until: until})
		return true
	})
	if len(rels) == 0 {
		return
	}
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !identity[sel.Sel.Name] || isWrite(sel, stack) {
			return true
		}
		obj := c.reqObjOf(sel.X, tainted)
		if obj == nil || !c.identityRead(sel, tainted) {
			return true
		}
		for _, r := range rels {
			if r.obj == obj && sel.Pos() > r.after && sel.Pos() < r.until {
				allow.Reportf(c.pass, sel.Pos(),
					"read of recyclable field %s after %s released the request back to the pool; copy the field before releasing",
					sel.Sel.Name, r.what)
				return true
			}
		}
		return true
	})
}

// checkSnapshotShadow flags expressions of the form x.req.ID where x's
// struct also carries a build-time snapshot field (id) of the same
// identity value: the snapshot exists because the pointer may already
// be recycled when x is consumed.
func (c *checker) checkSnapshotShadow(fd *ast.FuncDecl) {
	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !identity[sel.Sel.Name] || isWrite(sel, stack) {
			return true
		}
		outer := c.pass.TypesInfo.Selections[sel]
		if outer == nil || outer.Kind() != types.FieldVal {
			return true
		}
		if f := outer.Obj(); f.Pkg() == nil || f.Pkg().Path() != taskPkg {
			return true
		}
		inner, ok := unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		is := c.pass.TypesInfo.Selections[inner]
		if is == nil || is.Kind() != types.FieldVal || !isReqPtr(is.Obj().Type()) {
			return true
		}
		// The struct owning the *task.Request field.
		recv := is.Recv()
		if p, ok := recv.Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		st, ok := recv.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		for i := 0; i < st.NumFields(); i++ {
			g := st.Field(i)
			if g == is.Obj() || !strings.EqualFold(g.Name(), sel.Sel.Name) {
				continue
			}
			allow.Reportf(c.pass, sel.Pos(),
				"%s re-derives %s through a pooled request pointer that may already be recycled; read the build-time snapshot field %s.%s instead",
				exprString(sel), sel.Sel.Name, exprString(inner.X), g.Name())
			return true
		}
		return true
	})
}

// exprString renders simple selector/ident chains for diagnostics.
func exprString(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.TypeAssertExpr:
		return exprString(e.X) + ".(...)"
	}
	return "expr"
}
