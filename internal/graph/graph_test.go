package graph

import (
	"testing"

	"streamorca/internal/adl"
	"streamorca/internal/ids"
	"streamorca/internal/tuple"
)

func intSchema() []tuple.Attribute { return []tuple.Attribute{{Name: "v", Type: tuple.Int}} }

// figure2 reproduces the paper's Figure 2/3 layout: two composite1
// instances whose operators are fused into PEs that cross composite
// boundaries (op3'/op3” in PE with the sources, op4-6 of both instances
// in one PE).
func figure2() *adl.Application {
	app := &adl.Application{Name: "Figure2"}
	app.Composites = []adl.CompositeInstance{
		{Name: "composite1'", Kind: "composite1"},
		{Name: "composite1''", Kind: "composite1"},
	}
	add := func(name, kind, comp string, nin, nout int) {
		op := adl.Operator{Name: name, Kind: kind, Composite: comp}
		for i := 0; i < nin; i++ {
			op.Inputs = append(op.Inputs, adl.Port{Schema: intSchema()})
		}
		for i := 0; i < nout; i++ {
			op.Outputs = append(op.Outputs, adl.Port{Schema: intSchema()})
		}
		app.Operators = append(app.Operators, op)
	}
	add("op1", "Beacon", "", 0, 1)
	add("op2", "Beacon", "", 0, 1)
	for _, s := range []string{"'", "''"} {
		comp := "composite1" + s
		add("op3"+s, "Split", comp, 1, 2)
		add("op4"+s, "Functor", comp, 1, 1)
		add("op5"+s, "Functor", comp, 1, 1)
		add("op6"+s, "Merge", comp, 2, 1)
	}
	add("op7", "Sink", "", 1, 0)
	conn := func(f string, fp int, t string, tp int) {
		app.Connects = append(app.Connects, adl.Connection{FromOp: f, FromPort: fp, ToOp: t, ToPort: tp})
	}
	conn("op1", 0, "op3'", 0)
	conn("op2", 0, "op3''", 0)
	for _, s := range []string{"'", "''"} {
		conn("op3"+s, 0, "op4"+s, 0)
		conn("op3"+s, 1, "op5"+s, 0)
		conn("op4"+s, 0, "op6"+s, 0)
		conn("op5"+s, 0, "op6"+s, 1)
	}
	conn("op6'", 0, "op7", 0)
	conn("op6''", 0, "op7", 0)
	app.PEs = []adl.PE{
		{Index: 0, Operators: []string{"op1", "op2", "op3'", "op3''"}},
		{Index: 1, Operators: []string{"op4'", "op5'", "op6'", "op4''", "op5''", "op6''"}},
		{Index: 2, Operators: []string{"op7"}},
	}
	return app
}

func buildFigure2(t *testing.T) *Graph {
	t.Helper()
	app := figure2()
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := Build(app, 5, map[int]ids.PEID{0: 101, 1: 102, 2: 103}, fakePlatform{
		101: {"hostA", "running"}, 102: {"hostA", "running"}, 103: {"hostB", "running"},
	}.live)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fakePlatform stands in for SAM's PE table: PE id → host and state.
type fakePlatform map[ids.PEID][2]string

func (f fakePlatform) live(id ids.PEID) (host, state string) { return f[id][0], f[id][1] }

func TestBuildIdentity(t *testing.T) {
	g := buildFigure2(t)
	if g.App() != "Figure2" || g.Job() != 5 {
		t.Fatalf("identity %s/%v", g.App(), g.Job())
	}
	if len(g.OperatorNames()) != 11 {
		t.Fatalf("operators: %v", g.OperatorNames())
	}
	pes := g.PEIDs()
	if len(pes) != 3 || pes[0] != 101 {
		t.Fatalf("PEIDs: %v", pes)
	}
}

func TestBuildRejectsMissingPEID(t *testing.T) {
	app := figure2()
	if _, err := Build(app, 1, map[int]ids.PEID{0: 101}, nil); err == nil {
		t.Fatal("Build accepted missing PE id")
	}
}

func TestOperatorsInPE(t *testing.T) {
	g := buildFigure2(t)
	ops := g.OperatorsInPE(101)
	if len(ops) != 4 || ops[0].Name != "op1" || ops[3].Name != "op3''" {
		t.Fatalf("OperatorsInPE(101) = %+v", ops)
	}
	if g.OperatorsInPE(999) != nil {
		t.Fatal("unknown PE returned operators")
	}
}

func TestCompositesInPE(t *testing.T) {
	g := buildFigure2(t)
	// PE 102 holds operators from both composite instances.
	comps := g.CompositesInPE(102)
	if len(comps) != 2 || comps[0] != "composite1'" || comps[1] != "composite1''" {
		t.Fatalf("CompositesInPE(102) = %v", comps)
	}
	// PE 103 holds only the top-level sink.
	if got := g.CompositesInPE(103); len(got) != 0 {
		t.Fatalf("CompositesInPE(103) = %v", got)
	}
}

func TestEnclosingCompositeAndPEOfOperator(t *testing.T) {
	g := buildFigure2(t)
	comp, ok := g.EnclosingComposite("op4'")
	if !ok || comp != "composite1'" {
		t.Fatalf("EnclosingComposite(op4') = %q, %v", comp, ok)
	}
	if _, ok := g.EnclosingComposite("op1"); ok {
		t.Fatal("top-level operator has enclosing composite")
	}
	pe, ok := g.PEOfOperator("op6''")
	if !ok || pe != 102 {
		t.Fatalf("PEOfOperator(op6'') = %v, %v", pe, ok)
	}
	if _, ok := g.PEOfOperator("ghost"); ok {
		t.Fatal("unknown operator resolved to a PE")
	}
}

func TestHostOfPE(t *testing.T) {
	g := buildFigure2(t)
	if h, ok := g.HostOfPE(103); !ok || h != "hostB" {
		t.Fatalf("HostOfPE(103) = %q, %v", h, ok)
	}
	if _, ok := g.HostOfPE(999); ok {
		t.Fatal("unknown PE resolved to a host")
	}
}

func TestChainsAndContainment(t *testing.T) {
	g := buildFigure2(t)
	if chain := g.CompositeChain("op5''"); len(chain) != 1 || chain[0] != "composite1''" {
		t.Fatalf("CompositeChain(op5'') = %v", chain)
	}
	if kinds := g.CompositeKindChain("op5''"); len(kinds) != 1 || kinds[0] != "composite1" {
		t.Fatalf("CompositeKindChain(op5'') = %v", kinds)
	}
	if !g.InCompositeType("op3'", "composite1") {
		t.Fatal("op3' not in composite1")
	}
	if g.InCompositeType("op1", "composite1") {
		t.Fatal("op1 in composite1")
	}
}

func TestUpstreamDownstream(t *testing.T) {
	g := buildFigure2(t)
	up := g.Upstream("op7")
	if len(up) != 2 || up[0] != "op6'" || up[1] != "op6''" {
		t.Fatalf("Upstream(op7) = %v", up)
	}
	down := g.Downstream("op3'")
	if len(down) != 2 || down[0] != "op4'" {
		t.Fatalf("Downstream(op3') = %v", down)
	}
}

// TestStateAndHostUpdates: the graph keeps no copy of a PE's host or
// state; a change on the platform shows on the next read.
func TestStateAndHostUpdates(t *testing.T) {
	platform := fakePlatform{102: {"hostA", "running"}}
	g, err := Build(figure2(), 5, map[int]ids.PEID{0: 101, 1: 102, 2: 103}, platform.live)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := g.PE(102); p.State != "running" || p.Host != "hostA" {
		t.Fatalf("PE = %+v", p)
	}
	platform[102] = [2]string{"hostC", "crashed"}
	if p, _ := g.PE(102); p.State != "crashed" {
		t.Fatalf("PE state = %q", p.State)
	}
	if h, _ := g.HostOfPE(102); h != "hostC" {
		t.Fatalf("host after update = %q", h)
	}
	// A PE the platform no longer knows has no host or state; one outside
	// the graph is not found.
	delete(platform, 102)
	if p, ok := g.PE(102); !ok || p.State != "" || p.Host != "" {
		t.Fatalf("forgotten PE = %+v, %v", p, ok)
	}
	if _, ok := g.PE(999); ok {
		t.Fatal("unknown PE found")
	}
}

func TestPECopiesAreIndependent(t *testing.T) {
	g := buildFigure2(t)
	p, _ := g.PE(101)
	p.Operators[0] = "mutated"
	p2, _ := g.PE(101)
	if p2.Operators[0] == "mutated" {
		t.Fatal("PE() exposed internal storage")
	}
}

// nestedGraph builds a graph with composite nesting depth 3 to exercise
// the naive evaluator's transitive closure.
func nestedGraph(t *testing.T) *Graph {
	t.Helper()
	app := &adl.Application{Name: "Nested"}
	app.Composites = []adl.CompositeInstance{
		{Name: "outer", Kind: "outerKind"},
		{Name: "mid", Kind: "midKind", Parent: "outer"},
		{Name: "inner", Kind: "innerKind", Parent: "mid"},
	}
	app.Operators = []adl.Operator{
		{Name: "deep", Kind: "Split", Composite: "inner",
			Outputs: []adl.Port{{Schema: intSchema()}}},
		{Name: "shallow", Kind: "Split", Composite: "outer",
			Outputs: []adl.Port{{Schema: intSchema()}}},
		{Name: "top", Kind: "Merge",
			Inputs: []adl.Port{{Schema: intSchema()}}},
	}
	app.PEs = []adl.PE{{Index: 0, Operators: []string{"deep", "shallow", "top"}}}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := Build(app, 1, map[int]ids.PEID{0: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNaiveMatchBasics(t *testing.T) {
	g := nestedGraph(t)
	q := NaiveQuery{MetricName: "queueSize", OperatorKinds: []string{"Split"}, CompositeKinds: []string{"outerKind"}}
	if !NaiveMatch(g, "deep", "queueSize", q) {
		t.Fatal("deep operator not matched through transitive containment")
	}
	if !NaiveMatch(g, "shallow", "queueSize", q) {
		t.Fatal("shallow operator not matched")
	}
	if NaiveMatch(g, "top", "queueSize", q) {
		t.Fatal("top-level Merge matched (wrong kind, no composite)")
	}
	if NaiveMatch(g, "deep", "otherMetric", q) {
		t.Fatal("wrong metric matched")
	}
	if NaiveMatch(g, "ghost", "queueSize", q) {
		t.Fatal("unknown operator matched")
	}
}

func TestNaiveMatchInnerKindOnly(t *testing.T) {
	g := nestedGraph(t)
	q := NaiveQuery{CompositeKinds: []string{"innerKind"}}
	if !NaiveMatch(g, "deep", "m", q) {
		t.Fatal("deep not matched for innerKind")
	}
	if NaiveMatch(g, "shallow", "m", q) {
		t.Fatal("shallow matched for innerKind")
	}
}

func TestNaiveMatchNoCompositeFilterMatchesAll(t *testing.T) {
	g := nestedGraph(t)
	q := NaiveQuery{OperatorKinds: []string{"Merge"}}
	if !NaiveMatch(g, "top", "m", q) {
		t.Fatal("kind-only query failed")
	}
}

// TestNaiveMatchAgreesWithMemoisedChains is the E7 equivalence check at
// unit level: for every operator and composite kind, the naive recursive
// evaluation must agree with the memoised InCompositeType.
func TestNaiveMatchAgreesWithMemoisedChains(t *testing.T) {
	for _, g := range []*Graph{buildFigure2(t), nestedGraph(t)} {
		kinds := []string{"composite1", "outerKind", "midKind", "innerKind", "nope"}
		for _, op := range g.OperatorNames() {
			info, _ := g.Operator(op)
			for _, kind := range kinds {
				want := g.InCompositeType(op, kind)
				got := NaiveMatch(g, op, "m", NaiveQuery{CompositeKinds: []string{kind}})
				// NaiveMatch also requires kind match when set; here only
				// composite filter is set, so results must agree.
				if got != want {
					t.Fatalf("app %s op %s kind %s: naive=%v memoised=%v (info=%+v)",
						g.App(), op, kind, got, want, info)
				}
			}
		}
	}
}
