package pe

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// scriptSource is a source whose Run is the test's script, handed the
// context and its run-submitting side.
type scriptSource struct {
	opapi.Base
	ctx    opapi.Context
	script func(ctx opapi.Context, rs opapi.RunSubmitter, stop <-chan struct{}) error
}

func (s *scriptSource) Open(ctx opapi.Context) error { s.ctx = ctx; return nil }

func (s *scriptSource) Run(stop <-chan struct{}) error {
	return s.script(s.ctx, s.ctx.(opapi.RunSubmitter), stop)
}

// itemLog is a sink (or an outlet) that writes down every item in order.
type itemLog struct {
	opapi.Base
	mu  sync.Mutex
	log []string
}

func (l *itemLog) add(s string) {
	l.mu.Lock()
	l.log = append(l.log, s)
	l.mu.Unlock()
}

func (l *itemLog) Process(port int, t tuple.Tuple) error { l.add(fmt.Sprint(t.Int("v"))); return nil }

func (l *itemLog) ProcessMark(port int, m tuple.Mark) error {
	if m == tuple.FinalMark {
		l.add("final")
	} else {
		l.add("mark")
	}
	return nil
}

func (l *itemLog) outlet(run []Item) {
	for _, it := range run {
		if it.IsMark() {
			_ = l.ProcessMark(0, it.Mark)
		} else {
			_ = l.Process(0, it.T)
		}
	}
}

func (l *itemLog) entries() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.log...)
}

func intTuples(vs ...int64) []tuple.Tuple {
	ts := make([]tuple.Tuple, len(vs))
	for i, v := range vs {
		ts[i] = tuple.Build(intSchema).Int("v", v).Done()
	}
	return ts
}

func intRange(lo, n int) []tuple.Tuple {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(lo + i)
	}
	return intTuples(vs...)
}

// scriptPE builds src (the script) fused to the given downstream ops.
func scriptPE(t *testing.T, script func(opapi.Context, opapi.RunSubmitter, <-chan struct{}) error,
	down map[string]opapi.Operator, ops []OpSpec, wires []Wire, onExit func(ids.PEID, bool, string)) *PE {
	t.Helper()
	reg := opapi.NewRegistry()
	reg.Register("Script", func() opapi.Operator { return &scriptSource{script: script} })
	for kind, op := range down {
		op := op
		reg.Register(kind, func() opapi.Operator { return op })
	}
	specs := append([]OpSpec{{Name: "src", Kind: "Script", Outputs: []*tuple.Schema{intSchema}}}, ops...)
	p, err := New(Config{ID: 1, Job: 1, App: "run", Host: "h1", Ops: specs, Wires: wires, Registry: reg, OnExit: onExit})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func logSinkSpec() OpSpec {
	return OpSpec{Name: "sink", Kind: "Log", Inputs: []*tuple.Schema{intSchema}}
}

// TestSubmitRunRefusedWhole: a run with a bad tuple at position k is
// refused whole — nothing of it is emitted — with the error Submit
// gives for that tuple, and returning it crashes the PE as Submit's does.
func TestSubmitRunRefusedWhole(t *testing.T) {
	other := tuple.MustSchema(tuple.Attribute{Name: "w", Type: tuple.Int})
	for name, bad := range map[string]tuple.Tuple{
		"invalid":      {},
		"wrong schema": tuple.New(other),
	} {
		t.Run(name, func(t *testing.T) {
			sink := &itemLog{}
			exitCh := make(chan exit, 1)
			var runErr, oneErr error
			p := scriptPE(t, func(ctx opapi.Context, rs opapi.RunSubmitter, _ <-chan struct{}) error {
				run := intRange(0, 10)
				run[7] = bad
				runErr = rs.SubmitRun(0, run)
				oneErr = ctx.Submit(0, bad)
				return runErr
			}, map[string]opapi.Operator{"Log": sink}, []OpSpec{logSinkSpec()}, []Wire{{"src", 0, "sink", 0}},
				func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} })
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			e := waitExit(t, exitCh)
			if runErr == nil || oneErr == nil || runErr.Error() != oneErr.Error() {
				t.Fatalf("SubmitRun error %v, Submit error %v: want the same refusal", runErr, oneErr)
			}
			if !e.crashed || !strings.Contains(e.reason, runErr.Error()) {
				t.Fatalf("exit = %+v, want a crash carrying %q", e, runErr)
			}
			if got := sink.entries(); len(got) != 0 {
				t.Fatalf("sink saw %v of a refused run", got)
			}
			if got := peCounter(p, metrics.PETuplesSubmitted); got != 0 {
				t.Fatalf("nTuplesSubmitted = %d for a refused run", got)
			}
		})
	}
	t.Run("bad port", func(t *testing.T) {
		errs := make(chan error, 2)
		p := scriptPE(t, func(_ opapi.Context, rs opapi.RunSubmitter, _ <-chan struct{}) error {
			errs <- rs.SubmitRun(3, intRange(0, 2))
			errs <- rs.SubmitRun(3, nil)
			return nil
		}, nil, nil, nil, nil)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
		within(t, "script ran", func() {
			if err := <-errs; err == nil {
				t.Error("run on a port that does not exist accepted")
			}
			if err := <-errs; err != nil {
				t.Errorf("empty run: %v", err)
			}
		})
	})
}

// TestSubmitRunCountsInOneStep: a source's run leaves in one flush —
// every outlet of the port is called once, with the identical sequence,
// and by then nTuplesSubmitted on the operator, the port and the PE have
// advanced by the whole run.
func TestSubmitRunCountsInOneStep(t *testing.T) {
	const n = 100
	var p *PE
	type seen struct{ items, op, port, pe int64 }
	var mu sync.Mutex
	var calls []seen
	logs := [2]*itemLog{{}, {}}
	done := make(chan struct{})
	p = scriptPE(t, func(_ opapi.Context, rs opapi.RunSubmitter, _ <-chan struct{}) error {
		defer close(done)
		return rs.SubmitRun(0, intRange(0, n))
	}, nil, nil, nil, nil)
	rt := p.byName["src"]
	for i, l := range logs {
		l := l
		if err := p.AddOutlet("src", 0, fmt.Sprint("l", i), func(run []Item) {
			mu.Lock()
			calls = append(calls, seen{int64(len(run)), rt.cSubmitted.Value(), rt.pOut[0].Value(), peCounter(p, metrics.PETuplesSubmitted)})
			mu.Unlock()
			l.outlet(run)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	within(t, "script ran", func() { <-done })
	waitCond(t, "final mark at both outlets", func() bool {
		return len(logs[0].entries()) == n+1 && len(logs[1].entries()) == n+1
	})
	mu.Lock()
	defer mu.Unlock()
	want := seen{n, n, n, n}
	if len(calls) != 4 || calls[0] != want || calls[1] != want {
		t.Fatalf("outlet calls = %+v, want one of %+v per outlet and then the final mark", calls, want)
	}
	if a, b := logs[0].entries(), logs[1].entries(); !reflect.DeepEqual(a, b) || a[0] != "0" || a[n-1] != fmt.Sprint(n-1) || a[n] != "final" {
		t.Fatalf("the two outlets saw different or wrong sequences:\n%v\n%v", a, b)
	}
}

// runForwarder emits, for every input v, Submit(10v) and then
// SubmitRun(10v+1, 10v+2) from its processing goroutine.
type runForwarder struct {
	opapi.Base
	ctx opapi.Context
}

func (f *runForwarder) Open(ctx opapi.Context) error { f.ctx = ctx; return nil }

func (f *runForwarder) Process(port int, t tuple.Tuple) error {
	v := t.Int("v") * 10
	if err := f.ctx.Submit(0, intTuples(v)[0]); err != nil {
		return err
	}
	return f.ctx.(opapi.RunSubmitter).SubmitRun(0, intTuples(v+1, v+2))
}

func (f *runForwarder) ProcessMark(port int, m tuple.Mark) error {
	if m == tuple.FinalMark {
		return nil // the runtime forwards it
	}
	return f.ctx.SubmitMark(0, m)
}

// TestSubmitRunKeepsOrder: Submit, SubmitRun and SubmitMark interleave
// in call order, from a source and from an operator with inputs.
func TestSubmitRunKeepsOrder(t *testing.T) {
	sink := &itemLog{}
	p := scriptPE(t, func(ctx opapi.Context, rs opapi.RunSubmitter, _ <-chan struct{}) error {
		steps := []func() error{
			func() error { return ctx.Submit(0, intTuples(1)[0]) },
			func() error { return rs.SubmitRun(0, intTuples(2, 3, 4)) },
			func() error { return ctx.SubmitMark(0, tuple.WindowMark) },
			func() error { return rs.SubmitRun(0, intTuples(5, 6)) },
			func() error { return ctx.Submit(0, intTuples(7)[0]) },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	}, map[string]opapi.Operator{"Fwd": &runForwarder{}, "Log": sink},
		[]OpSpec{midSpec("fwd", "Fwd"), logSinkSpec()},
		[]Wire{{"src", 0, "fwd", 0}, {"fwd", 0, "sink", 0}}, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	waitCond(t, "final at sink", func() bool { e := sink.entries(); return len(e) > 0 && e[len(e)-1] == "final" })
	var want []string
	for v := 1; v <= 7; v++ {
		want = append(want, fmt.Sprint(10*v), fmt.Sprint(10*v+1), fmt.Sprint(10*v+2))
		if v == 4 {
			want = append(want, "mark")
		}
	}
	want = append(want, "final")
	if got := sink.entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("order:\n got %v\nwant %v", got, want)
	}
}

// TestSubmitRunArrivesAsOneBatch: a source's run of 4*maxChunk reaches
// its fused neighbour as one inbox entry and is worked through in
// maxChunk pieces; a kill during the first piece counts the other three
// as dropped.
func TestSubmitRunArrivesAsOneBatch(t *testing.T) {
	for _, kill := range []bool{false, true} {
		t.Run(fmt.Sprint("kill=", kill), func(t *testing.T) {
			op := &gatedBatch{entered: make(chan struct{}), gate: make(chan struct{})}
			exitCh := make(chan exit, 1)
			p := scriptPE(t, func(_ opapi.Context, rs opapi.RunSubmitter, stop <-chan struct{}) error {
				if err := rs.SubmitRun(0, intRange(0, 4*maxChunk)); err != nil {
					return err
				}
				<-stop
				return nil
			}, map[string]opapi.Operator{"Gated": op},
				[]OpSpec{{Name: "g", Kind: "Gated", Inputs: []*tuple.Schema{intSchema}}},
				[]Wire{{"src", 0, "g", 0}},
				func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} })
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			within(t, "first piece reaches the operator", func() { <-op.entered })
			want, dropped := []int{maxChunk, maxChunk, maxChunk, maxChunk}, int64(0)
			if kill {
				p.Kill("test kill")
				want, dropped = want[:1], 3*maxChunk
			}
			close(op.gate)
			if kill {
				waitExit(t, exitCh)
			} else {
				waitCond(t, "run processed", func() bool { return peCounter(p, metrics.PETuplesProcessed) == 4*maxChunk })
				p.Stop()
			}
			op.mu.Lock()
			sizes := append([]int(nil), op.sizes...)
			op.mu.Unlock()
			if !reflect.DeepEqual(sizes, want) {
				t.Fatalf("pieces delivered = %v, want %v", sizes, want)
			}
			if got := peCounter(p, metrics.PETuplesDropped); got != dropped {
				t.Fatalf("nTuplesDropped = %d, want %d", got, dropped)
			}
		})
	}
}

// TestSubmitSchemaMemo: a port remembers the last schema pointer that
// passed its check, and that changes no decision. After port 0 has
// admitted its schema, an invalid tuple and a schema one attribute off
// are still refused with the same messages, every time; an equal schema
// under another pointer is admitted; and neither port's memo admits
// anything on the other port.
func TestSubmitSchemaMemo(t *testing.T) {
	floats := tuple.MustSchema(tuple.Attribute{Name: "f", Type: tuple.Float})
	oneOff := tuple.MustSchema(tuple.Attribute{Name: "v", Type: tuple.Float})
	twin := tuple.MustSchema(tuple.Attribute{Name: "v", Type: tuple.Int})
	reg := opapi.NewRegistry()
	reg.Register("Script", func() opapi.Operator { return &scriptSource{} })
	p, err := New(Config{ID: 1, Job: 1, App: "memo", Host: "h1", Registry: reg,
		Ops: []OpSpec{{Name: "src", Kind: "Script", Outputs: []*tuple.Schema{intSchema, floats}}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := p.byName["src"].ctx
	mismatch := func(port int, got, want *tuple.Schema) string {
		return fmt.Sprintf("pe: src port %d schema mismatch: got %s want %s", port, got, want)
	}
	for i, step := range []struct {
		port int
		t    tuple.Tuple
		want string // Submit's error; "<nil>" admits
	}{
		{0, tuple.New(intSchema), "<nil>"},
		{0, tuple.Tuple{}, "pe: src submitted an invalid tuple on port 0"},
		{0, tuple.New(oneOff), mismatch(0, oneOff, intSchema)},
		{0, tuple.New(oneOff), mismatch(0, oneOff, intSchema)},
		{0, tuple.New(twin), "<nil>"},
		{1, tuple.New(twin), mismatch(1, twin, floats)},
		{1, tuple.New(intSchema), mismatch(1, intSchema, floats)},
		{1, tuple.New(floats), "<nil>"},
		{0, tuple.New(floats), mismatch(0, floats, intSchema)},
		{0, tuple.New(intSchema), "<nil>"},
	} {
		if got := fmt.Sprint(ctx.Submit(step.port, step.t)); got != step.want {
			t.Fatalf("step %d: Submit on port %d = %s, want %s", i, step.port, got, step.want)
		}
	}
}
