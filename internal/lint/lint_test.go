package lint_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mindgap/internal/lint"
	"mindgap/internal/lint/allow"
)

// TestKnownMatchesSuite pins allow.Known to the assembled analyzer
// suite: every suite analyzer must be suppressible by name, and every
// name the suppression mechanism accepts must correspond to a real
// analyzer — a stale entry would let //lint:allow directives reference
// a check that no longer exists.
func TestKnownMatchesSuite(t *testing.T) {
	suite := map[string]bool{}
	for _, a := range lint.Analyzers() {
		if a.Name == "lintallow" {
			// The directive validator itself is not suppressible: a
			// malformed suppression must always be a diagnostic.
			continue
		}
		suite[a.Name] = true
		if !allow.Known[a.Name] {
			t.Errorf("analyzer %q is in the suite but not in allow.Known: its diagnostics cannot be suppressed", a.Name)
		}
	}
	for name := range allow.Known {
		if !suite[name] {
			t.Errorf("allow.Known lists %q but no analyzer with that name is in the suite", name)
		}
	}
}

// moduleRoot walks up from this package to the directory holding go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// auditedSuppressions is the reviewed inventory of //lint:allow
// directives in the tree, keyed "<relative file> <analyzer>" with the
// number of directives. Adding a suppression anywhere in the module
// must update this table — the point is that every new exemption is an
// explicit, reviewed diff, not a drive-by comment.
var auditedSuppressions = map[string]int{
	"internal/dist/dist.go floateq":       2,
	"internal/faults/faults.go floateq":   3,
	"internal/hypothesis/spec.go floateq": 3,
	// relMargin/symGap: zero denominators mean "both arms measured
	// exactly zero", a defined tie, not a float comparison.
	"internal/hypothesis/verdict.go floateq": 2,
}

// TestTreeSuppressionsAudited parses every non-testdata Go file in the
// module and checks that each //lint:allow directive names a known
// analyzer, carries a reason, and appears in the audited inventory.
func TestTreeSuppressionsAudited(t *testing.T) {
	root := moduleRoot(t)
	found := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "vendor", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, allow.Prefix) {
					continue
				}
				rest := text[len(allow.Prefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // //lint:allowed etc — not a directive
				}
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				fields := strings.Fields(rest)
				posn := fset.Position(c.Slash)
				if len(fields) == 0 {
					t.Errorf("%s:%d: suppression has no analyzer name", rel, posn.Line)
					continue
				}
				name := fields[0]
				if !allow.Known[name] {
					t.Errorf("%s:%d: suppression names unknown analyzer %q", rel, posn.Line, name)
					continue
				}
				if len(fields) < 2 {
					t.Errorf("%s:%d: suppression of %s has no reason", rel, posn.Line, name)
					continue
				}
				found[rel+" "+name]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var keys []string
	for k := range found {
		keys = append(keys, k)
	}
	for k := range auditedSuppressions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		if found[k] != auditedSuppressions[k] {
			t.Errorf("suppression inventory drifted for %q: found %d directive(s), audited %d — review the change and update auditedSuppressions",
				k, found[k], auditedSuppressions[k])
		}
	}
}
