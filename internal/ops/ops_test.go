package ops

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

// fakeCtx is a minimal opapi.Context capturing submissions per port.
type fakeCtx struct {
	name    string
	params  opapi.Params
	ins     []*tuple.Schema
	outs    []*tuple.Schema
	emitted map[int][]tuple.Tuple
	marks   map[int][]tuple.Mark
	om      *metrics.OpMetrics
	clock   vclock.Clock
	objs    *opapi.Objects
}

func newFakeCtx(params opapi.Params, ins, outs []*tuple.Schema) *fakeCtx {
	return &fakeCtx{
		name: "test", params: params, ins: ins, outs: outs,
		emitted: make(map[int][]tuple.Tuple), marks: make(map[int][]tuple.Mark),
		om: metrics.NewOpMetrics(), clock: vclock.NewManual(time.Unix(0, 0)),
		objs: opapi.NewObjects(),
	}
}

func (c *fakeCtx) Name() string                           { return c.name }
func (c *fakeCtx) Params() opapi.Params                   { return c.params }
func (c *fakeCtx) NumOutputs() int                        { return len(c.outs) }
func (c *fakeCtx) InputSchema(i int) *tuple.Schema        { return c.ins[i] }
func (c *fakeCtx) OutputSchema(i int) *tuple.Schema       { return c.outs[i] }
func (c *fakeCtx) Clock() vclock.Clock                    { return c.clock }
func (c *fakeCtx) Done() <-chan struct{}                  { return nil }
func (c *fakeCtx) CustomMetric(n string) *metrics.Counter { return c.om.Custom.Counter(n) }
func (c *fakeCtx) Objects() *opapi.Objects                { return c.objs }

func (c *fakeCtx) Submit(i int, t tuple.Tuple) error {
	if i < 0 || i >= len(c.outs) {
		return fmt.Errorf("bad port %d", i)
	}
	c.emitted[i] = append(c.emitted[i], t)
	return nil
}

func (c *fakeCtx) SubmitMark(i int, m tuple.Mark) error {
	c.marks[i] = append(c.marks[i], m)
	return nil
}

var (
	intS   = tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})
	mixedS = tuple.MustSchema(
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "price", Type: tuple.Float},
		tuple.Attribute{Name: "sym", Type: tuple.String},
		tuple.Attribute{Name: "live", Type: tuple.Bool},
	)
)

func mixed(seq int64, price float64, sym string, live bool) tuple.Tuple {
	return tuple.Build(mixedS).Int("seq", seq).Float("price", price).Str("sym", sym).Bool("live", live).Done()
}

func TestBeaconEmitsCountTuples(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"count": "5"}, nil, []*tuple.Schema{intS})
	b := &beacon{}
	if err := b.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	got := ctx.emitted[0]
	if len(got) != 5 {
		t.Fatalf("emitted %d", len(got))
	}
	for i, tp := range got {
		if tp.Int("seq") != int64(i) {
			t.Fatalf("seq[%d] = %d", i, tp.Int("seq"))
		}
	}
}

func TestBeaconStops(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"count": "0"}, nil, []*tuple.Schema{intS})
	b := &beacon{}
	if err := b.Open(ctx); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	if err := b.Run(stop); err != nil {
		t.Fatal(err)
	}
	if len(ctx.emitted[0]) != 0 {
		t.Fatalf("emitted %d after immediate stop", len(ctx.emitted[0]))
	}
}

func TestBeaconRequiresOneOutput(t *testing.T) {
	ctx := newFakeCtx(nil, nil, nil)
	if err := (&beacon{}).Open(ctx); err == nil {
		t.Fatal("Beacon accepted zero outputs")
	}
}

func TestFilterNumericPredicates(t *testing.T) {
	cases := []struct {
		op   string
		val  string
		pass bool
	}{
		{"eq", "5", true}, {"eq", "4", false},
		{"ne", "4", true}, {"ne", "5", false},
		{"lt", "6", true}, {"lt", "5", false},
		{"le", "5", true}, {"le", "4", false},
		{"gt", "4", true}, {"gt", "5", false},
		{"ge", "5", true}, {"ge", "6", false},
	}
	for _, attr := range []string{"seq", "price"} {
		for _, tc := range cases {
			ctx := newFakeCtx(opapi.Params{"attr": attr, "op": tc.op, "value": tc.val},
				[]*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})
			f := &filter{}
			if err := f.Open(ctx); err != nil {
				t.Fatal(err)
			}
			if err := f.Process(0, mixed(5, 5, "", false)); err != nil {
				t.Fatal(err)
			}
			got := len(ctx.emitted[0]) == 1
			if got != tc.pass {
				t.Fatalf("%s op=%s val=%s: pass=%v want %v", attr, tc.op, tc.val, got, tc.pass)
			}
			if !tc.pass && ctx.om.Custom.Counter("nTuplesDropped").Value() != 1 {
				t.Fatalf("%s op=%s: drop metric not maintained", attr, tc.op)
			}
		}
	}
}

func TestFilterStringAndBool(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"attr": "sym", "op": "contains", "value": "BM"},
		[]*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})
	f := &filter{}
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_ = f.Process(0, mixed(0, 0, "IBM", false))
	_ = f.Process(0, mixed(0, 0, "AAPL", false))
	if len(ctx.emitted[0]) != 1 {
		t.Fatalf("contains filter passed %d", len(ctx.emitted[0]))
	}
	ctx2 := newFakeCtx(opapi.Params{"attr": "live", "op": "eq", "value": "true"},
		[]*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})
	f2 := &filter{}
	if err := f2.Open(ctx2); err != nil {
		t.Fatal(err)
	}
	_ = f2.Process(0, mixed(0, 0, "", true))
	_ = f2.Process(0, mixed(0, 0, "", false))
	if len(ctx2.emitted[0]) != 1 {
		t.Fatalf("bool filter passed %d", len(ctx2.emitted[0]))
	}
}

func TestFilterEmptyAttrPassesAll(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{}, []*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})
	f := &filter{}
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_ = f.Process(0, mixed(1, 0, "", false))
	if len(ctx.emitted[0]) != 1 {
		t.Fatal("pass-through filter dropped a tuple")
	}
}

func TestFilterOpenErrors(t *testing.T) {
	bad := []opapi.Params{
		{"attr": "ghost", "value": "1"},
		{"attr": "seq", "op": "zz", "value": "1"},
		{"attr": "seq", "value": "notanint"},
		{"attr": "price", "value": "notafloat"},
		{"attr": "live", "value": "notabool"},
		{"attr": "sym", "op": "lt", "value": "x"},
	}
	for i, p := range bad {
		ctx := newFakeCtx(p, []*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})
		if err := (&filter{}).Open(ctx); err == nil {
			t.Fatalf("case %d: bad params accepted: %v", i, p)
		}
	}
}

func TestDynamicFilterControl(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"attr": "seq", "op": "lt", "value": "10"},
		[]*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})
	f := &dynamicFilter{}
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_ = f.Process(0, mixed(5, 0, "", false))
	if len(ctx.emitted[0]) != 1 {
		t.Fatal("initial predicate failed")
	}
	if err := f.Control("setPredicate", map[string]string{"attr": "seq", "op": "gt", "value": "100"}); err != nil {
		t.Fatal(err)
	}
	_ = f.Process(0, mixed(5, 0, "", false))
	if len(ctx.emitted[0]) != 1 {
		t.Fatal("new predicate not applied")
	}
	if err := f.Control("bogus", nil); err == nil {
		t.Fatal("bogus command accepted")
	}
	if err := f.Control("setPredicate", map[string]string{"attr": "ghost"}); err == nil {
		t.Fatal("bad predicate accepted")
	}
}

func TestFunctorCopyAndTransforms(t *testing.T) {
	outS := tuple.MustSchema(
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "price", Type: tuple.Float},
		tuple.Attribute{Name: "sym", Type: tuple.String},
	)
	ctx := newFakeCtx(opapi.Params{"addInt": "seq:10", "scale": "price:2", "setStr": "sym:fixed"},
		[]*tuple.Schema{mixedS}, []*tuple.Schema{outS})
	f := &functor{}
	if err := f.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Process(0, mixed(5, 1.5, "orig", true)); err != nil {
		t.Fatal(err)
	}
	out := ctx.emitted[0][0]
	if out.Int("seq") != 15 || out.Float("price") != 3.0 || out.String("sym") != "fixed" {
		t.Fatalf("functor output: %s", out.Format())
	}
}

func TestFunctorBadSpecs(t *testing.T) {
	for _, p := range []opapi.Params{
		{"addInt": "noseparator"},
		{"addInt": "seq:notanumber"},
		{"scale": "price:notanumber"},
		{"setStr": ":"},
	} {
		ctx := newFakeCtx(p, []*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})
		if err := (&functor{}).Open(ctx); err == nil {
			t.Fatalf("bad spec accepted: %v", p)
		}
	}
}

func TestSplitRoundRobin(t *testing.T) {
	ctx := newFakeCtx(nil, []*tuple.Schema{mixedS}, []*tuple.Schema{mixedS, mixedS})
	s := &split{}
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = s.Process(0, mixed(int64(i), 0, "", false))
	}
	if len(ctx.emitted[0]) != 2 || len(ctx.emitted[1]) != 2 {
		t.Fatalf("round robin: %d/%d", len(ctx.emitted[0]), len(ctx.emitted[1]))
	}
}

func TestSplitDuplicate(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"mode": "duplicate"}, []*tuple.Schema{mixedS}, []*tuple.Schema{mixedS, mixedS})
	s := &split{}
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_ = s.Process(0, mixed(1, 0, "", false))
	if len(ctx.emitted[0]) != 1 || len(ctx.emitted[1]) != 1 {
		t.Fatal("duplicate mode did not fan out")
	}
}

func TestSplitHashIsStable(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"mode": "hash", "attr": "sym"}, []*tuple.Schema{mixedS}, []*tuple.Schema{mixedS, mixedS})
	s := &split{}
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = s.Process(0, mixed(0, 0, "IBM", false))
	}
	if !(len(ctx.emitted[0]) == 3 || len(ctx.emitted[1]) == 3) {
		t.Fatalf("hash split scattered one key: %d/%d", len(ctx.emitted[0]), len(ctx.emitted[1]))
	}
}

func TestSplitBadParams(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"mode": "hash"}, []*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})
	if err := (&split{}).Open(ctx); err == nil {
		t.Fatal("hash without attr accepted")
	}
	ctx2 := newFakeCtx(opapi.Params{"mode": "zigzag"}, []*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})
	if err := (&split{}).Open(ctx2); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestMergeForwards(t *testing.T) {
	ctx := newFakeCtx(nil, []*tuple.Schema{mixedS, mixedS}, []*tuple.Schema{mixedS})
	m := &merge{}
	if err := m.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_ = m.Process(0, mixed(1, 0, "", false))
	_ = m.Process(1, mixed(2, 0, "", false))
	if len(ctx.emitted[0]) != 2 {
		t.Fatalf("merge emitted %d", len(ctx.emitted[0]))
	}
}

var aggOutS = tuple.MustSchema(
	tuple.Attribute{Name: "sym", Type: tuple.String},
	tuple.Attribute{Name: "min", Type: tuple.Float},
	tuple.Attribute{Name: "max", Type: tuple.Float},
	tuple.Attribute{Name: "avg", Type: tuple.Float},
	tuple.Attribute{Name: "bbUpper", Type: tuple.Float},
	tuple.Attribute{Name: "bbLower", Type: tuple.Float},
	tuple.Attribute{Name: "count", Type: tuple.Int},
)

func TestAggregateSlidingWindow(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"window": "10s", "groupBy": "sym", "valueAttr": "price"},
		[]*tuple.Schema{mixedS}, []*tuple.Schema{aggOutS})
	manual := ctx.clock.(*vclock.Manual)
	a := &aggregate{}
	if err := a.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for i, price := range []float64{10, 20, 30} {
		_ = a.Process(0, mixed(int64(i), price, "IBM", false))
		manual.Advance(time.Second)
	}
	out := ctx.emitted[0][2]
	if out.String("sym") != "IBM" || out.Float("min") != 10 || out.Float("max") != 30 || out.Float("avg") != 20 || out.Int("count") != 3 {
		t.Fatalf("window stats: %s", out.Format())
	}
	if out.Float("bbUpper") <= out.Float("avg") || out.Float("bbLower") >= out.Float("avg") {
		t.Fatalf("bollinger bands wrong: %s", out.Format())
	}
	// Advance past the window: old samples evicted.
	manual.Advance(20 * time.Second)
	_ = a.Process(0, mixed(3, 100, "IBM", false))
	out = ctx.emitted[0][3]
	if out.Int("count") != 1 || out.Float("min") != 100 {
		t.Fatalf("eviction failed: %s", out.Format())
	}
}

func TestAggregateGroupsAreIndependent(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"window": "1h", "groupBy": "sym", "valueAttr": "price"},
		[]*tuple.Schema{mixedS}, []*tuple.Schema{aggOutS})
	a := &aggregate{}
	if err := a.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_ = a.Process(0, mixed(0, 10, "IBM", false))
	_ = a.Process(0, mixed(0, 99, "AAPL", false))
	out := ctx.emitted[0][1]
	if out.String("sym") != "AAPL" || out.Int("count") != 1 || out.Float("avg") != 99 {
		t.Fatalf("groups mixed: %s", out.Format())
	}
}

// snapshot runs fill into a one-section checkpoint and returns the
// section's decoder.
func snapshot(t *testing.T, fill func(*ckpt.Encoder) error) *ckpt.Decoder {
	t.Helper()
	w := ckpt.NewWriter()
	defer w.Close()
	if err := w.Section("op", "test", fill); err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.Parse(bytes.Clone(w.Finish()))
	if err != nil {
		t.Fatal(err)
	}
	return snap.Sections()[0].Decoder()
}

// TestAggregateSplitMergeMovesGroups: the parts of a width-2 split,
// merged into another replica, carry every group window, and a group
// both sides hold keeps all its samples.
func TestAggregateSplitMergeMovesGroups(t *testing.T) {
	open := func() (*aggregate, *fakeCtx) {
		ctx := newFakeCtx(opapi.Params{"window": "1h", "groupBy": "sym", "valueAttr": "price"},
			[]*tuple.Schema{mixedS}, []*tuple.Schema{aggOutS})
		a := &aggregate{}
		if err := a.Open(ctx); err != nil {
			t.Fatal(err)
		}
		return a, ctx
	}
	from, _ := open()
	syms := []string{"IBM", "AAPL", "MSFT", "GOOG", "ORCL"}
	for i, sym := range syms {
		_ = from.Process(0, mixed(0, float64(i+1), sym, false))
	}
	to, ctx := open()
	_ = to.Process(0, mixed(0, 9, "IBM", false))
	for part := 0; part < 2; part++ {
		if err := to.MergeState(snapshot(t, func(e *ckpt.Encoder) error { return from.SplitState(e, part, 2) })); err != nil {
			t.Fatal(err)
		}
	}
	if len(to.groups) != len(syms) {
		t.Fatalf("merged %d groups, want %d", len(to.groups), len(syms))
	}
	_ = to.Process(0, mixed(0, 5, "IBM", false))
	if out := ctx.emitted[0][1]; out.Int("count") != 3 || out.Float("min") != 1 || out.Float("max") != 9 {
		t.Fatalf("merged IBM window: %s", out.Format())
	}
}

// TestAggregateFailedRestoreKeepsWindows: a snapshot that fails to
// decode part-way leaves the windows as they were.
func TestAggregateFailedRestoreKeepsWindows(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"window": "1h", "groupBy": "sym", "valueAttr": "price"},
		[]*tuple.Schema{mixedS}, []*tuple.Schema{aggOutS})
	a := &aggregate{}
	if err := a.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_ = a.Process(0, mixed(0, 7, "IBM", false))
	// Two groups declared, the first one's sample missing.
	torn := snapshot(t, func(e *ckpt.Encoder) error { e.PutUint(2); e.PutStr("AAPL"); e.PutUint(1); return nil })
	if err := a.RestoreState(torn); err == nil {
		t.Fatal("torn snapshot restored")
	}
	if len(a.groups) != 1 || len(a.groups["IBM"]) != 1 {
		t.Fatalf("windows after a failed restore: %v", a.groups)
	}
}

func TestAggregateOpenErrors(t *testing.T) {
	for _, p := range []opapi.Params{
		{"groupBy": "sym", "valueAttr": "price"},                  // no window
		{"window": "10s", "groupBy": "sym"},                       // no valueAttr
		{"window": "10s", "groupBy": "sym", "valueAttr": "sym"},   // non-float
		{"window": "10s", "groupBy": "sym", "valueAttr": "ghost"}, // missing
	} {
		ctx := newFakeCtx(p, []*tuple.Schema{mixedS}, []*tuple.Schema{aggOutS})
		if err := (&aggregate{}).Open(ctx); err == nil {
			t.Fatalf("bad params accepted: %v", p)
		}
	}
}

func TestCollectSinkAndRegistry(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"collectorId": "c1"}, []*tuple.Schema{mixedS}, nil)
	s := &collectSink{}
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_ = s.Process(0, mixed(1, 0, "", false))
	_ = s.Process(0, mixed(2, 0, "", false))
	_ = s.ProcessMark(0, tuple.FinalMark)
	c := Collector(ctx.objs, "c1")
	if c.Len() != 2 || c.Finals() != 1 {
		t.Fatalf("collection: len=%d finals=%d", c.Len(), c.Finals())
	}
	last, ok := c.Last()
	if !ok || last.Int("seq") != 2 {
		t.Fatalf("Last() = %v, %v", last.Format(), ok)
	}
	if _, ok := Collector(ctx.objs, "c2").Last(); ok {
		t.Fatal("Last on empty collection")
	}
}

func TestCollectSinkLimit(t *testing.T) {
	ctx := newFakeCtx(opapi.Params{"collectorId": "lim", "limit": "2"}, []*tuple.Schema{mixedS}, nil)
	s := &collectSink{}
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		_ = s.Process(0, mixed(i, 0, "", false))
	}
	got := Collector(ctx.objs, "lim").Tuples()
	if len(got) != 2 || got[0].Int("seq") != 3 || got[1].Int("seq") != 4 {
		t.Fatalf("limited collection: %v", got)
	}
}

func TestCountSink(t *testing.T) {
	ctx := newFakeCtx(nil, []*tuple.Schema{mixedS}, nil)
	s := &countSink{}
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = s.Process(0, mixed(0, 0, "", false))
	}
	if ctx.om.Custom.Counter("nTuplesSeen").Value() != 3 {
		t.Fatal("nTuplesSeen wrong")
	}
	// The count survives a restart into a fresh container's metric.
	ctx2 := newFakeCtx(nil, []*tuple.Schema{mixedS}, nil)
	s2 := &countSink{}
	if err := s2.Open(ctx2); err != nil {
		t.Fatal(err)
	}
	if err := s2.RestoreState(snapshot(t, s.SaveState)); err != nil {
		t.Fatal(err)
	}
	if got := ctx2.om.Custom.Counter("nTuplesSeen").Value(); got != 3 {
		t.Fatalf("restored nTuplesSeen = %d, want 3", got)
	}
}

func TestAllKindsRegistered(t *testing.T) {
	for _, kind := range []string{
		KindBeacon, KindFilter, KindDynamicFilter, KindFunctor, KindSplit,
		KindMerge, KindAggregate, KindCollectSink, KindCountSink,
	} {
		if _, err := opapi.Default.New(kind); err != nil {
			t.Fatalf("kind %s not registered: %v", kind, err)
		}
		// Every built-in must also carry an operator model, so the
		// compiler validates its configuration at Build time.
		if opapi.Default.Model(kind) == nil {
			t.Fatalf("kind %s registered without an operator model", kind)
		}
	}
}

// TestMalformedParamsFailOpen verifies the built-ins no longer swallow
// malformed parameter values into silent defaults: a present but
// unparseable value fails Open (the runtime backstop behind Build-time
// model validation, e.g. for values substituted at submission time).
func TestMalformedParamsFailOpen(t *testing.T) {
	cases := []struct {
		name string
		op   opapi.Operator
		ctx  *fakeCtx
	}{
		{"beacon count", &beacon{}, newFakeCtx(opapi.Params{"count": "ten"}, nil, []*tuple.Schema{intS})},
		{"beacon period", &beacon{}, newFakeCtx(opapi.Params{"period": "soon"}, nil, []*tuple.Schema{intS})},
		{"filter op", &filter{}, newFakeCtx(opapi.Params{"attr": "seq", "op": "startswith", "value": "1"}, []*tuple.Schema{intS}, []*tuple.Schema{intS})},
		{"split mode", &split{}, newFakeCtx(opapi.Params{"mode": "random"}, []*tuple.Schema{intS}, []*tuple.Schema{intS})},
		{"aggregate window", &aggregate{}, newFakeCtx(opapi.Params{"window": "wide", "valueAttr": "price"}, []*tuple.Schema{mixedS}, []*tuple.Schema{mixedS})},
		{"collect limit", &collectSink{}, newFakeCtx(opapi.Params{"limit": "lots"}, []*tuple.Schema{intS}, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.op.Open(tc.ctx); err == nil {
				t.Fatal("Open accepted a malformed parameter value")
			}
		})
	}
}

// cloningCtx keeps a copy of what is submitted, as a downstream carrier
// would hold it: fakeCtx itself keeps the tuple, which only outlives the
// call for storage that is never recycled.
type cloningCtx struct{ *fakeCtx }

func (c cloningCtx) Submit(i int, t tuple.Tuple) error { return c.fakeCtx.Submit(i, t.Clone()) }

// TestFunctorBatchLeasesItsOutputBlock: ProcessBatch means what Process
// per tuple means, builds its outputs in one leased block, and lets go of
// it on return (that the storage then comes back, and a stage allocates
// nothing, is transport's TestHopAllocatesNoTupleStorage).
func TestFunctorBatchLeasesItsOutputBlock(t *testing.T) {
	outS := tuple.MustSchema(
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "price", Type: tuple.Float},
		tuple.Attribute{Name: "sym", Type: tuple.String},
	)
	params := opapi.Params{"addInt": "seq:10", "scale": "price:2"}
	ins := make([]tuple.Tuple, 5)
	for i := range ins {
		ins[i] = mixed(int64(i), 1.5, "orig", true)
	}
	var view tuple.Batch
	view.SetView(ins)

	perTuple := newFakeCtx(params, []*tuple.Schema{mixedS}, []*tuple.Schema{outS})
	batched := cloningCtx{newFakeCtx(params, []*tuple.Schema{mixedS}, []*tuple.Schema{outS})}
	one, all := &functor{}, &functor{}
	if err := one.Open(perTuple); err != nil {
		t.Fatal(err)
	}
	if err := all.Open(batched); err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if err := one.Process(0, in); err != nil {
			t.Fatal(err)
		}
	}
	if err := all.ProcessBatch(0, &view); err != nil {
		t.Fatal(err)
	}
	if len(batched.emitted[0]) != len(ins) {
		t.Fatalf("batch emitted %d of %d", len(batched.emitted[0]), len(ins))
	}
	for i, want := range perTuple.emitted[0] {
		if got := batched.emitted[0][i]; got.Format() != want.Format() {
			t.Fatalf("output %d: batch %s, per tuple %s", i, got.Format(), want.Format())
		}
	}

	// A context that drops what it is given, like the benchmark's probe.
	dropped := &droppingCtx{fakeCtx: newFakeCtx(params, []*tuple.Schema{mixedS}, []*tuple.Schema{outS})}
	f := &functor{}
	if err := f.Open(dropped); err != nil {
		t.Fatal(err)
	}
	if err := f.ProcessBatch(0, &view); err != nil {
		t.Fatal(err)
	}
	if dropped.last.Block() == nil {
		t.Fatal("batch outputs are not carved from a leased block")
	}
}

type droppingCtx struct {
	*fakeCtx
	last tuple.Tuple
}

func (c *droppingCtx) Submit(i int, t tuple.Tuple) error { c.last = t; return nil }

// TestCollectSinkKeepsCopies: the collection outlives the call, so what
// it keeps must not live in the frame's block.
func TestCollectSinkKeepsCopies(t *testing.T) {
	s := &collectSink{}
	ctx := newFakeCtx(opapi.Params{"collectorId": "copies"}, []*tuple.Schema{intS}, nil)
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	frame, blk := tuple.Lease(intS, nil, 3)
	for i, tu := range frame {
		intS.MustRef("seq").SetInt(tu, int64(i+1))
		if err := s.Process(0, tu); err != nil {
			t.Fatal(err)
		}
	}
	blk.Release()
	again, _ := tuple.Lease(intS, nil, 3) // the frame's storage, reused
	for _, tu := range again {
		intS.MustRef("seq").SetInt(tu, -1)
	}
	for i, got := range Collector(ctx.objs, "copies").Tuples() {
		if got.Block() != nil || got.Int("seq") != int64(i+1) {
			t.Fatalf("collected tuple %d reads %d from block %v", i, got.Int("seq"), got.Block())
		}
	}
}
