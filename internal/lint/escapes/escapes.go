// Package escapes implements the mindgap-lint escape gate, the one static
// allocation check.
//
// The compiler's escape analysis is the ground truth for what reaches the
// heap. This gate runs `go build -gcflags=-m`, attributes every "escapes to
// heap" / "moved to heap" diagnostic to the //mindgap:noalloc function
// enclosing it, and fails on any annotated function with a nonzero count.
// A function that must allocate (a free-list miss, a clone) stays
// unannotated; slice growth and unannotated callees are left to the
// runtime allocs tests.
//
// Two classes of diagnostics inside annotated functions are exempt:
//
//   - Escapes on the line range of a panic(...) call. Panic arguments
//     (fmt.Sprintf and its operands) escape by construction, and a
//     panicking simulation is dead anyway — the steady-state path never
//     executes them.
//
//   - Escapes whose exact position also carries an "inlining call to"
//     diagnostic. The compiler reports an inlined callee's escapes at
//     the call site, so an annotated caller of the (deliberately
//     unannotated, deliberately allocating) event allocator would
//     otherwise inherit the free-list-miss &event{} allocation. The
//     callee is still compiled standalone and reports the same escape
//     at its own line, so annotated callees lose no coverage from this
//     exemption; only attribution across the inlining boundary is
//     suppressed.
package escapes

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Directive marks a function as part of the zero-allocation hot path.
const Directive = "//mindgap:noalloc"

// fn is one annotated function found in the source tree.
type fn struct {
	key        string // pkgpath.(*Recv).Name
	file       string // path relative to module root, slash-separated
	start, end int    // body line range, inclusive
	panics     []lineRange
}

type lineRange struct{ start, end int }

// moduleRoot resolves the root directory of the main module.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", fmt.Errorf("escapes: resolving module root: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// listPackages returns Dir and GoFiles for every package in the module.
func listPackages(moduleDir string) (dirs map[string][]string, pkgPaths map[string]string, err error) {
	cmd := exec.Command("go", "list", "-e", "-json=Dir,ImportPath,GoFiles", "./...")
	cmd.Dir = moduleDir
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("escapes: go list: %w", err)
	}
	dirs = map[string][]string{}
	pkgPaths = map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p struct {
			Dir, ImportPath string
			GoFiles         []string
		}
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("escapes: decoding go list output: %w", err)
		}
		dirs[p.Dir] = p.GoFiles
		pkgPaths[p.Dir] = p.ImportPath
	}
	return dirs, pkgPaths, nil
}

// funcKey renders a FuncDecl as "(*Recv).Name", "Recv.Name" or "Name".
// Type parameters are dropped: a generic function is one entry, with
// shape-instantiation diagnostics deduplicated by source position.
func funcKey(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = s.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if ix, ok := t.(*ast.IndexListExpr); ok {
		t = ix.X
	}
	name := "?"
	if id, ok := t.(*ast.Ident); ok {
		name = id.Name
	}
	if ptr {
		return "(*" + name + ")." + d.Name.Name
	}
	return name + "." + d.Name.Name
}

// annotated parses every package file and returns the //mindgap:noalloc
// functions with their line ranges and panic-call ranges.
func annotated(moduleDir string) ([]fn, error) {
	dirs, pkgPaths, err := listPackages(moduleDir)
	if err != nil {
		return nil, err
	}
	var fns []fn
	fset := token.NewFileSet()
	for dir, files := range dirs {
		for _, base := range files {
			path := filepath.Join(dir, base)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("escapes: parsing %s: %w", path, err)
			}
			rel, err := filepath.Rel(moduleDir, path)
			if err != nil {
				return nil, err
			}
			fns = append(fns, fileFuncs(fset, f, pkgPaths[dir], filepath.ToSlash(rel))...)
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].key < fns[j].key })
	return fns, nil
}

// fileFuncs returns the annotated functions of one parsed file of package
// pkgPath, found at rel under the module root.
func fileFuncs(fset *token.FileSet, f *ast.File, pkgPath, rel string) []fn {
	var fns []fn
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || d.Body == nil || !hasDirective(d) {
			continue
		}
		e := fn{
			key:   pkgPath + "." + funcKey(d),
			file:  rel,
			start: fset.Position(d.Body.Pos()).Line,
			end:   fset.Position(d.Body.End()).Line,
		}
		ast.Inspect(d.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				e.panics = append(e.panics, lineRange{
					start: fset.Position(call.Pos()).Line,
					end:   fset.Position(call.End()).Line,
				})
			}
			return true
		})
		fns = append(fns, e)
	}
	return fns
}

// hasDirective reports whether the declaration's doc group contains the
// //mindgap:noalloc directive.
func hasDirective(d *ast.FuncDecl) bool {
	if d.Doc == nil {
		return false
	}
	for _, c := range d.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// diagLine matches one `-m` diagnostic: path:line:col: message.
var diagLine = regexp.MustCompile(`^([^:#][^:]*\.go):(\d+):(\d+): (.*)$`)

type pos struct {
	file      string
	line, col int
}

// Collect runs the compiler's escape analysis over the whole module and
// returns the heap-escape count of every annotated function, keyed
// "pkgpath.(*Recv).Name". A clean tree maps every key to zero.
func Collect() (map[string]int, error) {
	dir, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	fns, err := annotated(dir)
	if err != nil {
		return nil, err
	}

	// -a defeats the build cache: a cached package emits no diagnostics,
	// which would silently under-count. The rebuild is the price of a
	// trustworthy reading.
	cmd := exec.Command("go", "build", "-a", "-gcflags=-m", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.Stdout = os.Stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("escapes: go build -gcflags=-m failed: %w\n%s", err, stderr.String())
	}
	return count(fns, stderr.String()), nil
}

// count attributes the heap escapes in a `-gcflags=-m` transcript to the
// annotated functions enclosing them. An escaping position counts once:
// every shape instantiation of a generic function repeats its escapes,
// spelled differently ("k" in its own package, "core.k" in an importer).
func count(fns []fn, diags string) map[string]int {
	// First pass: positions that are inlined call sites. Escapes there
	// belong to the (standalone-compiled) callee, not the caller.
	inlined := map[pos]bool{}
	var escs []pos
	seen := map[pos]bool{}
	for _, line := range strings.Split(diags, "\n") {
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		l, _ := strconv.Atoi(m[2])
		c, _ := strconv.Atoi(m[3])
		p := pos{file: filepath.ToSlash(m[1]), line: l, col: c}
		msg := m[4]
		switch {
		case strings.HasPrefix(msg, "inlining call to "):
			inlined[p] = true
		case strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap"):
			if !seen[p] {
				seen[p] = true
				escs = append(escs, p)
			}
		}
	}

	counts := map[string]int{}
	for _, f := range fns {
		counts[f.key] = 0
	}
	for _, p := range escs {
		if inlined[p] {
			continue
		}
		for i := range fns {
			f := &fns[i]
			if f.file != p.file || p.line < f.start || p.line > f.end {
				continue
			}
			exempt := false
			for _, pr := range f.panics {
				if p.line >= pr.start && p.line <= pr.end {
					exempt = true
					break
				}
			}
			if !exempt {
				counts[f.key]++
			}
			break
		}
	}
	return counts
}
