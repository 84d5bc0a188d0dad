// Package lint implements orcalint, the platform's static-analysis
// suite: a set of analyzers encoding the cross-layer contracts the
// codebase otherwise keeps only by convention — the declarative layer
// (operator models, metric-name constants, checkpoint SPIs) and the
// imperative layer (Open/Bind calls, routine observers, actuations)
// must never drift, and drift is cheapest to catch at lint time, before
// a job is ever built or submitted.
//
// The package is deliberately self-contained: it mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic, an
// analysistest-style fixture harness) on the standard library alone, so
// the module keeps its zero-dependency property. Packages under
// analysis are type-checked from syntax; their dependencies are
// resolved through the build cache's export data (go list -export), the
// same mechanism go vet uses.
//
// Suppression: a diagnostic can be silenced with a directive comment
//
//	//orcalint:ignore <analyzer>[,<analyzer>] <reason>
//
// placed either at the end of the offending line or alone on the line
// immediately above it. The reason is mandatory — an undocumented
// exemption is itself a diagnostic — so every suppressed finding
// carries its justification in the source.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one orcalint check: a name for directives and the
// catalog, one-line and long documentation, and the Run function
// applied once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -list output, and
	// ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the analyzer's documentation; the first line is the
	// catalog summary.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Analyzers lists every orcalint analyzer, in catalog order.
var Analyzers = []*Analyzer{ActuationCheck, MetricKey, ParamDrift}

// Summary returns the first line of the analyzer's documentation.
func (a *Analyzer) Summary() string {
	if i := strings.IndexByte(a.Doc, '\n'); i >= 0 {
		return a.Doc[:i]
	}
	return a.Doc
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg  *Package
	diag *[]Diagnostic
}

// Diagnostic is one finding: a position and a message, tagged with the
// analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos unless an ignore directive covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg.ignored(p.Analyzer.Name, position) {
		return
	}
	*p.diag = append(*p.diag, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective records one parsed //orcalint:ignore comment.
type ignoreDirective struct {
	analyzers []string // empty means malformed
	line      int      // line the directive suppresses
	used      bool
	reason    bool
}

func (d *ignoreDirective) covers(analyzer string, line int) bool {
	if d.line != line || !d.reason {
		return false
	}
	for _, a := range d.analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

const ignorePrefix = "//orcalint:ignore"

// parseIgnores extracts the file's ignore directives. A directive that
// shares its line with code suppresses that line; a directive alone on
// a line suppresses the next line.
func parseIgnores(fset *token.FileSet, f *ast.File) []*fileDirective {
	src := codeLines(fset, f)
	var out []*fileDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			d := &ignoreDirective{}
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				d.analyzers = strings.Split(fields[0], ",")
				d.reason = len(fields) > 1
			}
			pos := fset.Position(c.Pos())
			if src[pos.Line] {
				d.line = pos.Line // end-of-line directive
			} else {
				d.line = pos.Line + 1 // directive on its own line
			}
			out = append(out, &fileDirective{ignoreDirective: d, pos: pos})
		}
	}
	return out
}

// codeLines reports which lines of a file hold non-comment tokens, so
// a directive can tell "end of code line" from "own line".
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
			return true
		default:
			lines[fset.Position(n.Pos()).Line] = true
			return true
		}
	})
	return lines
}

// runAnalyzers applies each analyzer to the package and returns the
// findings sorted by position. Malformed or unused directives are
// reported as findings of the pseudo-analyzer "orcalint" so a typoed
// suppression never silently rots.
func runAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			pkg:       pkg,
			diag:      &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	for _, d := range pkg.directives {
		if len(d.analyzers) == 0 || !d.reason {
			diags = append(diags, Diagnostic{
				Analyzer: "orcalint",
				Pos:      d.pos,
				Message:  "malformed ignore directive: want //orcalint:ignore <analyzer>[,<analyzer>] <reason>",
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// fileDirectives pairs a parsed directive with its position for the
// malformed-directive report.
type fileDirective struct {
	*ignoreDirective
	pos token.Position
}

// ignored reports whether an ignore directive in the package covers the
// (analyzer, position) pair.
func (p *Package) ignored(analyzer string, pos token.Position) bool {
	for _, d := range p.directives {
		if d.pos.Filename == pos.Filename && d.covers(analyzer, pos.Line) {
			d.used = true
			return true
		}
	}
	return false
}
