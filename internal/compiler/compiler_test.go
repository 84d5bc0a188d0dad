package compiler

import (
	"strings"
	"testing"

	"streamorca/internal/adl"
	"streamorca/internal/tuple"

	// Register the built-in operator kinds these programs use, so Build's
	// operator-model validation resolves them.
	_ "streamorca/internal/ops"
)

var intSchema = tuple.MustSchema(tuple.Attribute{Name: "v", Type: tuple.Int})

// buildFigure2 assembles the paper's Figure 2 program with the builder.
func buildFigure2(t *testing.T, opts Options) *adl.Application {
	t.Helper()
	b := NewApp("Figure2")
	op1 := b.AddOperator("op1", "Beacon").Out(intSchema)
	op2 := b.AddOperator("op2", "Beacon").Out(intSchema)
	splitMerge := func(inst string) (in, out *OpHandle) {
		var op3, op6 *OpHandle
		b.Composite("composite1", inst, func() {
			op3 = b.AddOperator("op3", "Split").In(intSchema).Out(intSchema, intSchema)
			op4 := b.AddOperator("op4", "Functor").In(intSchema).Out(intSchema)
			op5 := b.AddOperator("op5", "Functor").In(intSchema).Out(intSchema)
			op6 = b.AddOperator("op6", "Merge").In(intSchema, intSchema).Out(intSchema)
			b.Connect(op3, 0, op4, 0)
			b.Connect(op3, 1, op5, 0)
			b.Connect(op4, 0, op6, 0)
			b.Connect(op5, 0, op6, 1)
		})
		return op3, op6
	}
	in1, out1 := splitMerge("c1")
	in2, out2 := splitMerge("c2")
	sink1 := b.AddOperator("op7", "CountSink").In(intSchema)
	sink2 := b.AddOperator("op8", "CountSink").In(intSchema)
	b.Connect(op1, 0, in1, 0)
	b.Connect(op2, 0, in2, 0)
	b.Connect(out1, 0, sink1, 0)
	b.Connect(out2, 0, sink2, 0)
	app, err := b.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestBuildFigure2FuseNone(t *testing.T) {
	app := buildFigure2(t, Options{Fusion: FuseNone})
	if len(app.Operators) != 12 {
		t.Fatalf("operators = %d", len(app.Operators))
	}
	if len(app.PEs) != 12 {
		t.Fatalf("FuseNone produced %d PEs", len(app.PEs))
	}
	if len(app.Composites) != 2 {
		t.Fatalf("composites = %d", len(app.Composites))
	}
	// Qualified names.
	if app.OperatorByName("c1.op3") == nil || app.OperatorByName("c2.op6") == nil {
		t.Fatal("composite-qualified names missing")
	}
	if app.OperatorByName("c1.op3").Composite != "c1" {
		t.Fatal("composite membership wrong")
	}
}

func TestBuildFigure2FuseAll(t *testing.T) {
	app := buildFigure2(t, Options{Fusion: FuseAll})
	if len(app.PEs) != 1 {
		t.Fatalf("FuseAll produced %d PEs", len(app.PEs))
	}
	if len(app.PEs[0].Operators) != 12 {
		t.Fatalf("PE holds %d operators", len(app.PEs[0].Operators))
	}
}

func TestColocationFusesAcrossComposites(t *testing.T) {
	// The paper's Figure 3: operators from different composite instances
	// can share a PE. Tag c1.op4 and c2.op4 together.
	b := NewApp("X")
	src := b.AddOperator("src", "Beacon").Out(intSchema)
	var f1, f2 *OpHandle
	b.Composite("comp", "c1", func() {
		f1 = b.AddOperator("f", "Functor").In(intSchema).Out(intSchema).Colocate("shared")
	})
	b.Composite("comp", "c2", func() {
		f2 = b.AddOperator("f", "Functor").In(intSchema).Out(intSchema).Colocate("shared")
	})
	sink := b.AddOperator("sink", "CountSink").In(intSchema)
	b.Connect(src, 0, f1, 0)
	b.Connect(f1, 0, f2, 0)
	b.Connect(f2, 0, sink, 0)
	app, err := b.Build(Options{Fusion: FuseByTag})
	if err != nil {
		t.Fatal(err)
	}
	if app.PEOfOperator("c1.f") != app.PEOfOperator("c2.f") {
		t.Fatal("colocation tag did not fuse across composites")
	}
	if app.PEOfOperator("src") == app.PEOfOperator("c1.f") {
		t.Fatal("untagged operator fused under FuseByTag")
	}
}

func TestIsolateGetsOwnPEUnderFuseAll(t *testing.T) {
	b := NewApp("X")
	src := b.AddOperator("src", "Beacon").Out(intSchema)
	iso := b.AddOperator("iso", "Functor").In(intSchema).Out(intSchema).Isolate()
	sink := b.AddOperator("sink", "CountSink").In(intSchema)
	b.Connect(src, 0, iso, 0)
	b.Connect(iso, 0, sink, 0)
	app, err := b.Build(Options{Fusion: FuseAll})
	if err != nil {
		t.Fatal(err)
	}
	if len(app.PEs) != 2 {
		t.Fatalf("PEs = %d", len(app.PEs))
	}
	isoPE := app.PEOfOperator("iso")
	if len(app.OperatorsInPE(isoPE)) != 1 {
		t.Fatal("isolated operator shares a PE")
	}
}

func TestIsolateAndColocateConflict(t *testing.T) {
	b := NewApp("X")
	b.AddOperator("bad", "Functor").In(intSchema).Out(intSchema).Isolate().Colocate("tag")
	if _, err := b.Build(Options{}); err == nil || !strings.Contains(err.Error(), "isolated and colocated") {
		t.Fatalf("err = %v", err)
	}
}

func TestPoolPropagationAndConflict(t *testing.T) {
	b := NewApp("X")
	b.HostPool(adl.HostPool{Name: "fast", Hosts: []string{"h1"}})
	a := b.AddOperator("a", "Beacon").Out(intSchema).Colocate("g").Pool("fast")
	c := b.AddOperator("c", "CountSink").In(intSchema).Colocate("g")
	b.Connect(a, 0, c, 0)
	app, err := b.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if app.PEs[0].Pool != "fast" {
		t.Fatalf("pool = %q", app.PEs[0].Pool)
	}

	b2 := NewApp("Y")
	b2.HostPool(adl.HostPool{Name: "p1"})
	b2.HostPool(adl.HostPool{Name: "p2"})
	x := b2.AddOperator("x", "Beacon").Out(intSchema).Colocate("g").Pool("p1")
	y := b2.AddOperator("y", "CountSink").In(intSchema).Colocate("g").Pool("p2")
	b2.Connect(x, 0, y, 0)
	if _, err := b2.Build(Options{}); err == nil || !strings.Contains(err.Error(), "conflicting pools") {
		t.Fatalf("err = %v", err)
	}
}

func TestIsolateHostFlag(t *testing.T) {
	b := NewApp("X")
	b.AddOperator("a", "Beacon").Out(intSchema).IsolateHost()
	app, err := b.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !app.PEs[0].IsolatePE {
		t.Fatal("IsolateHost not propagated")
	}
}

func TestExportImportPropagation(t *testing.T) {
	b := NewApp("X")
	src := b.AddOperator("src", "Beacon").Out(intSchema)
	sink := b.AddOperator("sink", "CountSink").In(intSchema)
	b.Export(src, 0, "stream1", map[string]string{"k": "v"})
	b.Import(sink, 0, "stream1", nil)
	app, err := b.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Exports) != 1 || app.Exports[0].Operator != "src" || app.Exports[0].StreamID != "stream1" {
		t.Fatalf("exports = %+v", app.Exports)
	}
	if len(app.Imports) != 1 || app.Imports[0].Operator != "sink" {
		t.Fatalf("imports = %+v", app.Imports)
	}
}

func TestBuilderErrorAccumulation(t *testing.T) {
	b := NewApp("")
	b.AddOperator("", "")
	b.EndComposite()
	b.Connect(nil, 0, nil, 0)
	_, err := b.Build(Options{})
	if err == nil {
		t.Fatal("Build succeeded with accumulated errors")
	}
	for _, want := range []string{"empty application name", "empty name or kind", "EndComposite", "invalid handles"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestUnclosedCompositeFails(t *testing.T) {
	b := NewApp("X")
	b.BeginComposite("k", "c")
	b.AddOperator("a", "Beacon").Out(intSchema)
	if _, err := b.Build(Options{}); err == nil || !strings.Contains(err.Error(), "unclosed") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateOperatorAndPool(t *testing.T) {
	b := NewApp("X")
	b.AddOperator("a", "Beacon").Out(intSchema)
	b.AddOperator("a", "Beacon").Out(intSchema)
	if _, err := b.Build(Options{}); err == nil || !strings.Contains(err.Error(), "duplicate operator") {
		t.Fatalf("err = %v", err)
	}
	b2 := NewApp("Y")
	b2.HostPool(adl.HostPool{Name: "p"})
	b2.HostPool(adl.HostPool{Name: "p"})
	b2.AddOperator("a", "Beacon").Out(intSchema)
	if _, err := b2.Build(Options{}); err == nil || !strings.Contains(err.Error(), "duplicate host pool") {
		t.Fatalf("err = %v", err)
	}
}

func TestNestedComposites(t *testing.T) {
	b := NewApp("X")
	var deep *OpHandle
	b.Composite("outerK", "outer", func() {
		b.Composite("innerK", "inner", func() {
			deep = b.AddOperator("op", "Beacon").Out(intSchema)
		})
	})
	app, err := b.Build(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if deep.Name() != "outer.inner.op" {
		t.Fatalf("deep name = %q", deep.Name())
	}
	chain := app.CompositeChain("outer.inner.op")
	if len(chain) != 2 || chain[0] != "outer.inner" || chain[1] != "outer" {
		t.Fatalf("chain = %v", chain)
	}
}

func TestNoOperatorsFails(t *testing.T) {
	b := NewApp("X")
	if _, err := b.Build(Options{}); err == nil {
		t.Fatal("empty application built")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a1 := buildFigure2(t, Options{Fusion: FuseByTag})
	a2 := buildFigure2(t, Options{Fusion: FuseByTag})
	d1, _ := a1.Marshal()
	d2, _ := a2.Marshal()
	if string(d1) != string(d2) {
		t.Fatal("Build is not deterministic")
	}
}
