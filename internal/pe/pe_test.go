package pe

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

var intSchema = tuple.MustSchema(tuple.Attribute{Name: "v", Type: tuple.Int})

// testSource emits n sequential ints and finishes.
type testSource struct {
	opapi.Base
	ctx opapi.Context
	n   int
}

func (s *testSource) Open(ctx opapi.Context) error { s.ctx = ctx; return nil }

func (s *testSource) Run(stop <-chan struct{}) error {
	for i := 0; i < s.n; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		t := tuple.Build(s.ctx.OutputSchema(0)).Int("v", int64(i)).Done()
		if err := s.ctx.Submit(0, t); err != nil {
			return err
		}
	}
	return nil
}

// doubler multiplies values by 2.
type doubler struct {
	opapi.Base
	ctx opapi.Context
}

func (d *doubler) Open(ctx opapi.Context) error { d.ctx = ctx; return nil }

func (d *doubler) Process(port int, t tuple.Tuple) error {
	out := tuple.Build(d.ctx.OutputSchema(0)).Int("v", t.Int("v")*2).Done()
	return d.ctx.Submit(0, out)
}

// collector gathers values and records lifecycle calls.
type collector struct {
	opapi.Base
	mu     sync.Mutex
	got    []int64
	finals int
	closed bool
}

func (c *collector) Process(port int, t tuple.Tuple) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, t.Int("v"))
	return nil
}

func (c *collector) ProcessMark(port int, m tuple.Mark) error {
	if m == tuple.FinalMark {
		c.mu.Lock()
		c.finals++
		c.mu.Unlock()
	}
	return nil
}

func (c *collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *collector) values() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.got...)
}

// failer errors on the first tuple.
type failer struct{ opapi.Base }

func (f *failer) Process(int, tuple.Tuple) error { return errors.New("boom") }

// panicker panics on the first tuple.
type panicker struct{ opapi.Base }

func (p *panicker) Process(int, tuple.Tuple) error { panic("kaboom") }

// dynFilter is a controllable pass-through with a settable threshold.
type dynFilter struct {
	opapi.Base
	ctx opapi.Context
	min int64
}

func (d *dynFilter) Open(ctx opapi.Context) error { d.ctx = ctx; return nil }

func (d *dynFilter) Process(port int, t tuple.Tuple) error {
	if t.Int("v") >= d.min {
		return d.ctx.Submit(0, t)
	}
	return nil
}

func (d *dynFilter) Control(cmd string, args map[string]string) error {
	if cmd != "setMin" {
		return fmt.Errorf("unknown command %q", cmd)
	}
	var v int64
	if _, err := fmt.Sscanf(args["min"], "%d", &v); err != nil {
		return err
	}
	d.min = v
	return nil
}

type exit struct {
	pe      ids.PEID
	crashed bool
	reason  string
}

func newTestRegistry(coll *collector, n int) *opapi.Registry {
	reg := opapi.NewRegistry()
	reg.Register("TestSource", func() opapi.Operator { return &testSource{n: n} })
	reg.Register("Doubler", func() opapi.Operator { return &doubler{} })
	reg.Register("Coll", func() opapi.Operator { return coll })
	reg.Register("Failer", func() opapi.Operator { return &failer{} })
	reg.Register("Panicker", func() opapi.Operator { return &panicker{} })
	reg.Register("DynFilter", func() opapi.Operator { return &dynFilter{} })
	return reg
}

func srcSpec(name string) OpSpec {
	return OpSpec{Name: name, Kind: "TestSource", Outputs: []*tuple.Schema{intSchema}}
}

func midSpec(name, kind string) OpSpec {
	return OpSpec{Name: name, Kind: kind, Inputs: []*tuple.Schema{intSchema}, Outputs: []*tuple.Schema{intSchema}}
}

func sinkSpec(name string) OpSpec {
	return OpSpec{Name: name, Kind: "Coll", Inputs: []*tuple.Schema{intSchema}}
}

// waitExit receives the PE's exit notification, with a deadline.
func waitExit(t *testing.T, ch <-chan exit) (e exit) {
	t.Helper()
	wait.Within(t, "the PE's exit", func() { e = <-ch })
	return e
}

func TestSinglePEPipeline(t *testing.T) {
	coll := &collector{}
	exitCh := make(chan exit, 1)
	p, err := New(Config{
		ID: 1, Job: 1, App: "test", Host: "h1",
		Ops:      []OpSpec{srcSpec("src"), midSpec("dbl", "Doubler"), sinkSpec("sink")},
		Wires:    []Wire{{"src", 0, "dbl", 0}, {"dbl", 0, "sink", 0}},
		Registry: newTestRegistry(coll, 5),
		OnExit:   func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "final punctuation at sink", func() bool {
		coll.mu.Lock()
		defer coll.mu.Unlock()
		return coll.finals == 1
	})
	vals := coll.values()
	if len(vals) != 5 {
		t.Fatalf("sink got %v", vals)
	}
	for i, v := range vals {
		if v != int64(i*2) {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
	p.Stop()
	e := waitExit(t, exitCh)
	if e.crashed {
		t.Fatalf("clean stop reported as crash: %+v", e)
	}
	if !coll.closed {
		t.Fatal("Close not called on clean stop")
	}
	if p.State() != Stopped {
		t.Fatalf("state = %v", p.State())
	}
}

func TestPEMetricsSnapshot(t *testing.T) {
	coll := &collector{}
	p, err := New(Config{
		ID: 7, Job: 3, App: "metApp", Host: "h1",
		Ops:      []OpSpec{srcSpec("src"), sinkSpec("sink")},
		Wires:    []Wire{{"src", 0, "sink", 0}},
		Registry: newTestRegistry(coll, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "tuples at sink", func() bool { return len(coll.values()) == 10 })
	samples := p.MetricsSnapshot()
	find := func(scope metrics.Scope, op, name string) (int64, bool) {
		for _, s := range samples {
			if s.Scope == scope && s.Operator == op && s.Name == name {
				return s.Value, true
			}
		}
		return 0, false
	}
	if v, ok := find(metrics.OperatorScope, "src", metrics.OpTuplesSubmitted); !ok || v != 10 {
		t.Fatalf("src nTuplesSubmitted = %d, %v", v, ok)
	}
	if v, ok := find(metrics.OperatorScope, "sink", metrics.OpTuplesProcessed); !ok || v != 10 {
		t.Fatalf("sink nTuplesProcessed = %d, %v", v, ok)
	}
	if v, ok := find(metrics.PEScope, "", metrics.PETuplesProcessed); !ok || v != 10 {
		t.Fatalf("pe nTuplesProcessed = %d, %v", v, ok)
	}
	for _, s := range samples {
		if s.Job != 3 || s.App != "metApp" || s.PE != 7 {
			t.Fatalf("sample identity wrong: %+v", s)
		}
	}
	p.Stop()
}

func TestCrossPEPipeline(t *testing.T) {
	coll := &collector{}
	reg := newTestRegistry(coll, 8)
	up, err := New(Config{ID: 1, Job: 1, App: "x", Ops: []OpSpec{srcSpec("src")}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	down, err := New(Config{ID: 2, Job: 1, App: "x", Ops: []OpSpec{sinkSpec("sink")}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	inlet, err := down.ExternalInlet("sink", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := up.AddOutlet("src", 0, "link1", itemOutlet(inlet)); err != nil {
		t.Fatal(err)
	}
	if err := down.Start(); err != nil {
		t.Fatal(err)
	}
	if err := up.Start(); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "cross-PE final", func() bool {
		coll.mu.Lock()
		defer coll.mu.Unlock()
		return coll.finals == 1
	})
	if got := len(coll.values()); got != 8 {
		t.Fatalf("sink got %d tuples", got)
	}
	up.Stop()
	down.Stop()
}

// itemOutlet adapts a per-item inlet to the run-taking Outlet.
func itemOutlet(inlet func(Item)) Outlet {
	return func(run []Item) {
		for _, it := range run {
			inlet(it)
		}
	}
}

func TestRemoveOutletStopsFlow(t *testing.T) {
	coll := &collector{}
	reg := opapi.NewRegistry()
	block := make(chan struct{})
	reg.Register("SlowSource", func() opapi.Operator { return &gatedSource{gate: block} })
	reg.Register("Coll", func() opapi.Operator { return coll })
	up, _ := New(Config{ID: 1, Job: 1, App: "x",
		Ops: []OpSpec{{Name: "src", Kind: "SlowSource", Outputs: []*tuple.Schema{intSchema}}}, Registry: reg})
	down, _ := New(Config{ID: 2, Job: 1, App: "x", Ops: []OpSpec{sinkSpec("sink")}, Registry: reg})
	inlet, _ := down.ExternalInlet("sink", 0)
	if err := up.AddOutlet("src", 0, "l", itemOutlet(inlet)); err != nil {
		t.Fatal(err)
	}
	_ = down.Start()
	_ = up.Start()
	block <- struct{}{} // allow one tuple
	wait.For(t, "first tuple", func() bool { return len(coll.values()) == 1 })
	if err := up.RemoveOutlet("src", 0, "l"); err != nil {
		t.Fatal(err)
	}
	block <- struct{}{} // second tuple goes nowhere
	block <- struct{}{} // taken, so the second Submit has returned
	// A source forwards inside Submit: anything the second tuple reached
	// is queued at the sink ahead of this fence.
	inlet(TupleItem(tuple.Build(intSchema).Int("v", 99).Done()))
	wait.For(t, "the fence tuple", func() bool { return slices.Contains(coll.values(), 99) })
	if got := coll.values(); !slices.Equal(got, []int64{0, 99}) {
		t.Fatalf("sink got %v after outlet removal, want [0 99]", got)
	}
	up.Stop()
	down.Stop()
}

// gatedSource emits one tuple per receive on gate.
type gatedSource struct {
	opapi.Base
	ctx  opapi.Context
	gate chan struct{}
}

func (g *gatedSource) Open(ctx opapi.Context) error { g.ctx = ctx; return nil }

func (g *gatedSource) Run(stop <-chan struct{}) error {
	var i int64
	for {
		select {
		case <-stop:
			return nil
		case <-g.gate:
			t := tuple.Build(g.ctx.OutputSchema(0)).Int("v", i).Done()
			if err := g.ctx.Submit(0, t); err != nil {
				return err
			}
			i++
		}
	}
}

func TestOperatorErrorCrashesPE(t *testing.T) {
	coll := &collector{}
	exitCh := make(chan exit, 1)
	p, _ := New(Config{ID: 1, Job: 1, App: "x",
		Ops:      []OpSpec{srcSpec("src"), midSpec("bad", "Failer"), sinkSpec("sink")},
		Wires:    []Wire{{"src", 0, "bad", 0}, {"bad", 0, "sink", 0}},
		Registry: newTestRegistry(coll, 5),
		OnExit:   func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} },
	})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	e := waitExit(t, exitCh)
	if !e.crashed || e.reason == "" {
		t.Fatalf("exit = %+v", e)
	}
	if p.State() != Crashed {
		t.Fatalf("state = %v", p.State())
	}
}

func TestOperatorPanicCrashesPE(t *testing.T) {
	coll := &collector{}
	exitCh := make(chan exit, 1)
	p, _ := New(Config{ID: 1, Job: 1, App: "x",
		Ops:      []OpSpec{srcSpec("src"), midSpec("bad", "Panicker"), sinkSpec("sink")},
		Wires:    []Wire{{"src", 0, "bad", 0}, {"bad", 0, "sink", 0}},
		Registry: newTestRegistry(coll, 5),
		OnExit:   func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} },
	})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	e := waitExit(t, exitCh)
	if !e.crashed {
		t.Fatalf("exit = %+v", e)
	}
}

func TestKillDropsStateAndSkipsClose(t *testing.T) {
	coll := &collector{}
	exitCh := make(chan exit, 1)
	reg := opapi.NewRegistry()
	gate := make(chan struct{}, 100)
	reg.Register("SlowSource", func() opapi.Operator { return &gatedSource{gate: gate} })
	reg.Register("Coll", func() opapi.Operator { return coll })
	p, _ := New(Config{ID: 9, Job: 1, App: "x",
		Ops:      []OpSpec{{Name: "src", Kind: "SlowSource", Outputs: []*tuple.Schema{intSchema}}, sinkSpec("sink")},
		Wires:    []Wire{{"src", 0, "sink", 0}},
		Registry: reg,
		OnExit:   func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} },
	})
	_ = p.Start()
	gate <- struct{}{}
	wait.For(t, "one tuple", func() bool { return len(coll.values()) == 1 })
	p.Kill("injected fault")
	e := waitExit(t, exitCh)
	if !e.crashed || e.reason != "injected fault" || e.pe != 9 {
		t.Fatalf("exit = %+v", e)
	}
	if coll.closed {
		t.Fatal("Close called on crash")
	}
	// Items delivered to a dead PE are dropped silently (tuple loss).
	inlet, _ := p.ExternalInlet("sink", 0)
	inlet(TupleItem(tuple.Build(intSchema).Int("v", 99).Done()))
	if got := len(coll.values()); got != 1 {
		t.Fatalf("dead PE processed a tuple: %v", coll.values())
	}
}

func TestControlCommand(t *testing.T) {
	coll := &collector{}
	reg := opapi.NewRegistry()
	gate := make(chan struct{}, 100)
	reg.Register("SlowSource", func() opapi.Operator { return &gatedSource{gate: gate} })
	reg.Register("Coll", func() opapi.Operator { return coll })
	reg.Register("DynFilter", func() opapi.Operator { return &dynFilter{} })
	p, _ := New(Config{ID: 1, Job: 1, App: "x",
		Ops: []OpSpec{
			{Name: "src", Kind: "SlowSource", Outputs: []*tuple.Schema{intSchema}},
			midSpec("filt", "DynFilter"),
			sinkSpec("sink"),
		},
		Wires:    []Wire{{"src", 0, "filt", 0}, {"filt", 0, "sink", 0}},
		Registry: reg,
	})
	_ = p.Start()
	gate <- struct{}{} // v=0 passes (min 0)
	wait.For(t, "v=0", func() bool { return len(coll.values()) == 1 })
	if err := p.Control("filt", "setMin", map[string]string{"min": "5"}); err != nil {
		t.Fatal(err)
	}
	for range 5 {
		gate <- struct{}{} // v=1..4 filtered, v=5 passes
	}
	wait.For(t, "v=5", func() bool { return len(coll.values()) == 2 })
	if got := coll.values(); !slices.Equal(got, []int64{0, 5}) {
		t.Fatalf("filter did not apply: %v", got)
	}
	if err := p.Control("filt", "bogus", nil); err == nil {
		t.Fatal("bogus command accepted")
	}
	if err := p.Control("sink", "x", nil); err == nil {
		t.Fatal("control on non-controllable accepted")
	}
	if err := p.Control("ghost", "x", nil); err == nil {
		t.Fatal("control on unknown operator accepted")
	}
	p.Stop()
}

func TestDuplicateFinalIgnored(t *testing.T) {
	coll := &collector{}
	p, _ := New(Config{ID: 1, Job: 1, App: "x",
		Ops:      []OpSpec{sinkSpec("sink")},
		Registry: newTestRegistry(coll, 0),
	})
	_ = p.Start()
	inlet, _ := p.ExternalInlet("sink", 0)
	inlet(MarkItem(tuple.FinalMark))
	inlet(MarkItem(tuple.FinalMark))
	// A finalised sink's loop exits, and no mark reaches it after that.
	wait.Within(t, "the sink's loop exits", func() { <-p.byName["sink"].loopDone })
	coll.mu.Lock()
	finals := coll.finals
	coll.mu.Unlock()
	if finals != 1 {
		t.Fatalf("finals = %d", finals)
	}
	p.Stop()
}

func TestNewRejectsBadConfig(t *testing.T) {
	coll := &collector{}
	reg := newTestRegistry(coll, 1)
	if _, err := New(Config{ID: 1, Ops: []OpSpec{{Name: "x", Kind: "Nope"}}, Registry: reg}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := New(Config{ID: 1, Ops: []OpSpec{sinkSpec("a"), sinkSpec("a")}, Registry: reg}); err == nil {
		t.Fatal("duplicate operator accepted")
	}
	if _, err := New(Config{ID: 1, Ops: []OpSpec{srcSpec("s")},
		Wires: []Wire{{"s", 0, "ghost", 0}}, Registry: reg}); err == nil {
		t.Fatal("wire to unknown operator accepted")
	}
	if _, err := New(Config{ID: 1, Ops: []OpSpec{srcSpec("s"), sinkSpec("k")},
		Wires: []Wire{{"s", 3, "k", 0}}, Registry: reg}); err == nil {
		t.Fatal("wire port out of range accepted")
	}
}

func TestStartTwiceFails(t *testing.T) {
	coll := &collector{}
	p, _ := New(Config{ID: 1, Ops: []OpSpec{sinkSpec("sink")}, Registry: newTestRegistry(coll, 0)})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
	p.Stop()
}

func TestInletErrors(t *testing.T) {
	coll := &collector{}
	p, _ := New(Config{ID: 1, Ops: []OpSpec{sinkSpec("sink")}, Registry: newTestRegistry(coll, 0)})
	if _, err := p.ExternalInlet("ghost", 0); err == nil {
		t.Fatal("inlet for unknown operator")
	}
	if _, err := p.ExternalInlet("sink", 5); err == nil {
		t.Fatal("inlet for bad port")
	}
	if err := p.AddOutlet("sink", 0, "l", func([]Item) {}); err == nil {
		t.Fatal("outlet on sink output accepted")
	}
	if _, err := p.InputSchema("sink", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OutputSchema("sink", 0); err == nil {
		t.Fatal("OutputSchema on sink succeeded")
	}
}

// A container that is wired but never started — SAM's deploy builds and
// wires a whole set before it starts any of it, and rolls the set back
// when a step fails — must let go of its producers when stopped or
// killed: queued batches are recycled and counted, a producer parked on
// the full inbox wakes, and nobody hears of an exit that never was.
func TestStopOrKillBeforeStartReleasesProducers(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*PE)
		want State
	}{
		{"stop", (*PE).Stop, Stopped},
		{"kill", func(p *PE) { p.Kill("host failure") }, Crashed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coll := &collector{}
			exits := make(chan exit, 1)
			p, err := New(Config{
				ID: 1, Ops: []OpSpec{sinkSpec("sink")}, Registry: newTestRegistry(coll, 0), QueueCap: 4,
				OnExit: func(id ids.PEID, crashed bool, reason string) { exits <- exit{id, crashed, reason} },
			})
			if err != nil {
				t.Fatal(err)
			}
			inlet, err := p.ExternalBatchInlet("sink", 0)
			if err != nil {
				t.Fatal(err)
			}
			frame := func() *Batch {
				b := GetBatch()
				for i := 0; i < 4; i++ {
					b.Items = append(b.Items, TupleItem(tuple.Build(intSchema).Int("v", int64(i)).Done()))
				}
				return b
			}
			queued := frame()
			inlet(queued) // fills the inbox: 4 tuples against QueueCap 4
			parked := make(chan struct{})
			go func() {
				defer close(parked)
				inlet(frame()) // blocks on the full inbox of a container nobody drains
			}()
			select {
			case <-parked:
				t.Fatal("producer did not block on the full inbox")
			case <-time.After(20 * time.Millisecond):
			}

			tc.end(p)
			wait.Within(t, "a producer parked on a retired container returns", func() { <-parked })
			if got := p.State(); got != tc.want {
				t.Fatalf("state = %v, want %v", got, tc.want)
			}
			if len(queued.Items) != 0 {
				t.Fatalf("queued batch not recycled: %d items", len(queued.Items))
			}
			if got := p.PEMetrics().Counter(metrics.PETuplesDropped).Value(); got != 8 {
				t.Fatalf("nTuplesDropped = %d, want 8 (4 queued + 4 refused)", got)
			}
			if err := p.Start(); err == nil {
				t.Fatal("Start of a retired container succeeded")
			}
			p.Stop() // idempotent
			select {
			case e := <-exits:
				t.Fatalf("OnExit fired for a container that never ran: %+v", e)
			case <-time.After(20 * time.Millisecond):
			}
			if len(coll.values()) != 0 || coll.closed {
				t.Fatalf("operator was touched: got=%v closed=%v", coll.values(), coll.closed)
			}
		})
	}
}
