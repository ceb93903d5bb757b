// Package allow implements the mindgap-lint suppression mechanism.
//
// A diagnostic may be silenced with a directive comment on the same
// line, or on the line immediately above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory: a suppression without a justification is
// itself reported as a diagnostic (by the lintallow analyzer below), so
// every exemption in the tree carries a one-line explanation of why the
// nondeterminism (or deadlock risk) is acceptable there.
package allow

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
	"sync"

	"golang.org/x/tools/go/analysis"
)

// Prefix is the directive marker. Like all Go directives it must start
// at the beginning of a line comment with no space after "//".
const Prefix = "//lint:allow"

// Known lists the analyzer names a directive may reference. The
// lintallow analyzer rejects directives naming anything else, so a typo
// in a suppression cannot silently disable it.
var Known = map[string]bool{
	"simclock":   true,
	"maporder":   true,
	"floateq":    true,
	"lockedsend": true,
	"poolsafe":   true,
}

// Directive is one parsed //lint:allow comment.
type Directive struct {
	Pos      token.Pos
	Line     int
	Analyzer string // "" if missing
	Reason   string // "" if missing
}

// parse splits the text of a single //-comment into a Directive.
// ok is false if the comment is not an allow directive at all.
func parse(c *ast.Comment) (d Directive, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, Prefix) {
		return d, false
	}
	rest := text[len(Prefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		// e.g. //lint:allowed — some other token, not our directive.
		return d, false
	}
	d.Pos = c.Slash
	// A second "//" ends the directive: anything after it is trailing
	// commentary, not part of the reason. (This also lets analyzer
	// testdata place `// want` expectations on the directive line.)
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) > 0 {
		d.Analyzer = fields[0]
		d.Reason = strings.TrimSpace(strings.Join(fields[1:], " "))
	}
	return d, true
}

// directives caches the parsed directives of a file, keyed by line.
// The cache is global because analyzers from several passes share the
// same *ast.File values within one driver process.
var directives sync.Map // *ast.File -> map[int][]Directive

func fileDirectives(fset *token.FileSet, f *ast.File) map[int][]Directive {
	if v, ok := directives.Load(f); ok {
		return v.(map[int][]Directive)
	}
	m := make(map[int][]Directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parse(c)
			if !ok {
				continue
			}
			d.Line = fset.Position(c.Slash).Line
			m[d.Line] = append(m[d.Line], d)
		}
	}
	v, _ := directives.LoadOrStore(f, m)
	return v.(map[int][]Directive)
}

// Suppressed reports whether a diagnostic from the named analyzer at
// pos is covered by a well-formed allow directive (matching analyzer
// name AND a non-empty reason) on the same line or the line above.
func Suppressed(pass *analysis.Pass, analyzer string, pos token.Pos) bool {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			line := pass.Fset.Position(pos).Line
			m := fileDirectives(pass.Fset, f)
			for _, d := range append(m[line], m[line-1]...) {
				if d.Analyzer == analyzer && d.Reason != "" {
					return true
				}
			}
			return false
		}
	}
	return false
}

// Reportf reports a diagnostic for pass.Analyzer unless it is
// suppressed by an allow directive. All mindgap-lint analyzers report
// through this function.
func Reportf(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if Suppressed(pass, pass.Analyzer.Name, pos) {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos:      pos,
		Category: pass.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer validates the directives themselves: an allow comment with a
// missing or unknown analyzer name, or without a reason, is a
// diagnostic. This is what makes the reason mandatory.
var Analyzer = &analysis.Analyzer{
	Name: "lintallow",
	Doc:  "check that //lint:allow directives name a known analyzer and give a reason",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parse(c)
				if !ok {
					continue
				}
				switch {
				case d.Analyzer == "":
					pass.Reportf(c.Slash, "lint:allow directive is missing an analyzer name and a reason")
				case !Known[d.Analyzer]:
					pass.Reportf(c.Slash, "lint:allow directive names unknown analyzer %q", d.Analyzer)
				case d.Reason == "":
					pass.Reportf(c.Slash, "lint:allow %s directive is missing a reason: every suppression must say why it is safe", d.Analyzer)
				}
			}
		}
	}
	return nil, nil
}
