package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const directiveSrc = `package p

func a() {
	_ = 1 //orcalint:ignore paramdrift end-of-line reason
	//orcalint:ignore metrickey,paramdrift own-line reason
	_ = 2
	//orcalint:ignore actuationcheck
	_ = 3
}
`

func TestIgnoreDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Fset: fset, directives: parseIgnores(fset, f)}
	if n := len(pkg.directives); n != 3 {
		t.Fatalf("parsed %d directives, want 3", n)
	}
	at := func(line int) token.Position { return token.Position{Filename: "p.go", Line: line} }

	// End-of-line form covers its own line, for its analyzer only.
	if !pkg.ignored("paramdrift", at(4)) {
		t.Error("end-of-line directive does not cover its own line")
	}
	if pkg.ignored("metrickey", at(4)) {
		t.Error("directive covers an analyzer it does not name")
	}
	// Own-line form covers the next line, for every listed analyzer.
	for _, a := range []string{"metrickey", "paramdrift"} {
		if !pkg.ignored(a, at(6)) {
			t.Errorf("own-line directive does not cover the next line for %s", a)
		}
	}
	if pkg.ignored("metrickey", at(5)) {
		t.Error("own-line directive covers its own (code-free) line")
	}
	// A directive without a reason suppresses nothing and is itself a
	// finding.
	if pkg.ignored("actuationcheck", at(8)) {
		t.Error("reason-less directive suppresses a diagnostic")
	}
	diags, err := runAnalyzers(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "orcalint" ||
		!strings.Contains(diags[0].Message, "malformed ignore directive") {
		t.Fatalf("want one malformed-directive finding, got %v", diags)
	}
	if diags[0].Pos.Line != 7 {
		t.Errorf("malformed-directive finding at line %d, want 7", diags[0].Pos.Line)
	}
}

func TestCatalog(t *testing.T) {
	var names []string
	seen := make(map[string]bool)
	for _, a := range Analyzers {
		names = append(names, a.Name)
		if a.Name == "" || a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q is not a lower-case single word", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run function", a.Name)
		}
		if a.Summary() == "" || strings.Contains(a.Summary(), "\n") {
			t.Errorf("analyzer %s has no one-line summary", a.Name)
		}
	}
	if got, want := strings.Join(names, " "), "actuationcheck metrickey paramdrift"; got != want {
		t.Errorf("catalog lists %q, want %q", got, want)
	}
}
