// Package linttest is a minimal analysistest replacement for the
// mindgap-lint suite (golang.org/x/tools/go/analysis/analysistest is
// not part of the offline vendor snapshot).
//
// A test case is a directory of Go files forming one package, loaded
// under a caller-chosen import path — the path matters, because
// analyzers like simclock apply only to simulation packages. Expected
// findings are declared with analysistest-style comments on the line
// the diagnostic lands on:
//
//	t0 := time.Now() // want `time\.Now is forbidden`
//
// Every reported diagnostic must match an expectation on its line and
// every expectation must be matched, otherwise the test fails.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"golang.org/x/tools/go/analysis"

	"mindgap/internal/lint/driver"
)

// exportCache memoizes `go list -export` runs: the stdlib export data
// never changes within one test process.
var exportCache = struct {
	sync.Mutex
	m map[string]string
}{m: make(map[string]string)}

func exportsFor(t *testing.T, imports []string) map[string]string {
	t.Helper()
	exportCache.Lock()
	defer exportCache.Unlock()
	var missing []string
	for _, p := range imports {
		if p == "unsafe" || p == "C" {
			continue
		}
		if _, ok := exportCache.m[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		pkgs, err := driver.List("", missing...)
		if err != nil {
			t.Fatalf("resolving test imports: %v", err)
		}
		for p, f := range driver.Exports(pkgs) {
			exportCache.m[p] = f
		}
		// The export data is built by a subprocess the test cache does not
		// see; opening the module sources it came from puts them in the
		// cache key, so an edit to them reruns the test.
		for _, lp := range pkgs {
			if lp.Standard {
				continue
			}
			for _, name := range lp.GoFiles {
				if f, err := os.Open(filepath.Join(lp.Dir, name)); err == nil {
					f.Close()
				}
			}
		}
	}
	out := make(map[string]string, len(exportCache.m))
	for k, v := range exportCache.m {
		out[k] = v
	}
	return out
}

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

// parseWant extracts the quoted regexps following a "// want" marker.
func parseWant(text string) ([]string, bool) {
	i := strings.Index(text, "// want ")
	if i < 0 {
		return nil, false
	}
	rest := strings.TrimSpace(text[i+len("// want "):])
	var rxs []string
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			break
		}
		s, err := strconv.Unquote(q)
		if err != nil {
			break
		}
		rxs = append(rxs, s)
		rest = strings.TrimSpace(rest[len(q):])
	}
	return rxs, len(rxs) > 0
}

// Run loads dir as a single package named by importPath, applies the
// analyzer, and checks its diagnostics against // want expectations.
func Run(t *testing.T, a *analysis.Analyzer, importPath, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	sort.Strings(names)
	lp := &driver.ListedPackage{ImportPath: importPath, Dir: dir}
	for _, n := range names {
		lp.GoFiles = append(lp.GoFiles, filepath.Base(n))
	}

	// Pre-parse once just to discover imports for export-data setup.
	fset := token.NewFileSet()
	importSet := map[string]bool{}
	var parsed []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, n, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", n, err)
		}
		parsed = append(parsed, f)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			importSet[p] = true
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)

	imp := driver.Importer(fset, exportsFor(t, imports))
	cp, err := driver.Check(fset, lp, imp)
	if err != nil {
		t.Fatalf("type-checking testdata %s: %v", dir, err)
	}
	diags, err := driver.RunAnalyzers(cp, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	// Collect expectations from comments.
	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, f := range parsed {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rxs, ok := parseWant(c.Text)
				if !ok {
					continue
				}
				posn := fset.Position(c.Slash)
				key := fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
				for _, rx := range rxs {
					re, err := regexp.Compile(rx)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, rx, err)
					}
					wants[key] = append(wants[key], &expectation{rx: re})
				}
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Posn.Filename), d.Posn.Line)
		found := false
		for _, exp := range wants[key] {
			if !exp.matched && exp.rx.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, exp := range wants[k] {
			if !exp.matched {
				t.Errorf("%s: expected diagnostic matching %q was not reported", k, exp.rx)
			}
		}
	}
}
