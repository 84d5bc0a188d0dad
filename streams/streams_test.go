package streams_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamorca/streams"
)

// counterOp is a user-defined operator registered through the public SPI.
type counterOp struct {
	streams.OperatorBase
	ctx streams.OpContext
	n   *atomic.Int64
}

var publicOpCount atomic.Int64

func init() {
	streams.RegisterOperator("PublicCounter", func() streams.Operator {
		return &counterOp{n: &publicOpCount}
	})
}

func (c *counterOp) Open(ctx streams.OpContext) error { c.ctx = ctx; return nil }

func (c *counterOp) Process(port int, t streams.Tuple) error {
	c.n.Add(1)
	return c.ctx.Submit(0, t)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPublicAPIEndToEnd(t *testing.T) {
	inst, err := streams.NewInstance(streams.InstanceOptions{
		Hosts:           []streams.HostSpec{{Name: "h1"}, {Name: "h2"}},
		MetricsInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	schema := streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})
	b := streams.NewApp("public")
	src := b.AddOperator("src", "Beacon").Out(schema).Param("count", "25")
	mid := b.AddOperator("mid", "PublicCounter").In(schema).Out(schema)
	sink := b.AddOperator("sink", "CollectSink").In(schema).Param("collectorId", "public-out")
	b.Connect(src, 0, mid, 0)
	b.Connect(mid, 0, sink, 0)
	app, err := b.Build(streams.BuildOptions{Fusion: streams.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(app.PEs) != 3 {
		t.Fatalf("FuseNone produced %d PEs", len(app.PEs))
	}

	streams.Collector("public-out").Reset()
	publicOpCount.Store(0)
	job, err := inst.SAM.SubmitJob(app, streams.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "completion", func() bool { return streams.Collector("public-out").Finals() == 1 })
	if streams.Collector("public-out").Len() != 25 || publicOpCount.Load() != 25 {
		t.Fatalf("tuples: sink=%d custom=%d", streams.Collector("public-out").Len(), publicOpCount.Load())
	}
	info, ok := inst.SAM.Job(job)
	if !ok || info.App != "public" {
		t.Fatalf("job info: %+v", info)
	}
	if err := inst.SAM.CancelJob(job); err != nil {
		t.Fatal(err)
	}
}

func TestManualClockExported(t *testing.T) {
	start := time.Unix(500, 0)
	clock := streams.NewManualClock(start)
	if !clock.Now().Equal(start) {
		t.Fatal("manual clock start wrong")
	}
	clock.Advance(time.Minute)
	if !clock.Now().Equal(start.Add(time.Minute)) {
		t.Fatal("manual clock advance wrong")
	}
	inst, err := streams.NewInstance(streams.InstanceOptions{
		Clock: clock, Hosts: []streams.HostSpec{{Name: "h1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
}

func TestOperatorKindsIncludeBuiltins(t *testing.T) {
	kinds := streams.OperatorKinds()
	want := map[string]bool{"Beacon": false, "Filter": false, "Aggregate": false, "CollectSink": false}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("built-in kind %q missing from %v", k, kinds)
		}
	}
}

func TestSchemaAndTupleHelpers(t *testing.T) {
	s, err := streams.NewSchema(streams.Attribute{Name: "x", Type: streams.Float})
	if err != nil {
		t.Fatal(err)
	}
	tp := streams.NewTuple(s)
	if err := tp.SetFloat("x", 2.5); err != nil {
		t.Fatal(err)
	}
	if tp.Float("x") != 2.5 {
		t.Fatal("tuple round trip failed")
	}
	if _, err := streams.NewSchema(streams.Attribute{Name: "", Type: streams.Int}); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

// gatedOp is a custom operator registered WITH a descriptor, so the
// builder validates its configuration at Build time.
type gatedOp struct {
	streams.OperatorBase
	ctx streams.OpContext
}

func (g *gatedOp) Open(ctx streams.OpContext) error { g.ctx = ctx; return nil }

func (g *gatedOp) Process(port int, t streams.Tuple) error { return g.ctx.Submit(0, t) }

func init() {
	streams.RegisterOperatorModel("PublicGate", func() streams.Operator { return &gatedOp{} },
		&streams.OpModel{
			Doc:     "test operator with a declared model",
			Inputs:  streams.ExactlyPorts(1),
			Outputs: streams.ExactlyPorts(1),
			Params: []streams.ParamSpec{
				{Name: "threshold", Type: streams.ParamInt, Required: true, Min: streams.Bound(0)},
				{Name: "mode", Type: streams.ParamEnum, Enum: []string{"open", "closed"}, Default: "open"},
			},
		})
}

func TestRegisterOperatorModelValidatesAtBuild(t *testing.T) {
	if m := streams.OperatorModel("PublicGate"); m == nil || m.Kind != "PublicGate" {
		t.Fatalf("OperatorModel = %+v", m)
	}
	if streams.OperatorModel("Beacon") == nil {
		t.Fatal("built-in Beacon has no descriptor")
	}
	schema := streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})

	// Misconfigured: missing required param, bad enum value, arity
	// violation. All three must surface in one Build error.
	b := streams.NewApp("gate-bad")
	src := b.AddOperator("src", "Beacon").Out(schema).Param("count", "5")
	gate := b.AddOperator("gate", "PublicGate").In(schema, schema).Out(schema).
		Param("mode", "ajar")
	b.Connect(src, 0, gate, 0)
	_, err := b.Build(streams.BuildOptions{})
	if err == nil {
		t.Fatal("misconfigured custom operator built")
	}
	for _, want := range []string{
		`required param "threshold"`,
		`value "ajar" not in {open, closed}`,
		"declares 2 input port(s), want exactly 1",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Build error missing %q: %v", want, err)
		}
	}

	// Well-configured: builds cleanly.
	b2 := streams.NewApp("gate-ok")
	src2 := b2.AddOperator("src", "Beacon").Out(schema).Param("count", "5")
	gate2 := b2.AddOperator("gate", "PublicGate").In(schema).Out(schema).
		Param("threshold", "3").Param("mode", "open")
	sink2 := b2.AddOperator("sink", "CollectSink").In(schema).Param("collectorId", "gate-ok")
	b2.Connect(src2, 0, gate2, 0)
	b2.Connect(gate2, 0, sink2, 0)
	if _, err := b2.Build(streams.BuildOptions{}); err != nil {
		t.Fatalf("valid custom operator rejected: %v", err)
	}
}

// statefulPublicOp is a user-defined stateful operator registered
// through the public SPI: its running total is checkpointable.
type statefulPublicOp struct {
	streams.OperatorBase
	ctx   streams.OpContext
	total int64
}

var publicRestored atomic.Int64

func init() {
	streams.RegisterOperatorModel("PublicStateful", func() streams.Operator { return &statefulPublicOp{} },
		&streams.OpModel{
			Doc:     "sums seq values into checkpointable state",
			Inputs:  streams.ExactlyPorts(1),
			Outputs: streams.ExactlyPorts(1),
		})
}

func (s *statefulPublicOp) Open(ctx streams.OpContext) error { s.ctx = ctx; return nil }

func (s *statefulPublicOp) Process(port int, t streams.Tuple) error {
	s.total += t.Int("seq")
	return s.ctx.Submit(0, t)
}

func (s *statefulPublicOp) SaveState(e *streams.StateEncoder) error {
	e.PutInt(s.total)
	return nil
}

func (s *statefulPublicOp) RestoreState(d *streams.StateDecoder) error {
	v := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	s.total = v
	publicRestored.Store(v)
	return nil
}

// TestCheckpointStorePublicAPI drives the checkpointing surface
// exported by streams end to end: a stateful custom operator on a
// checkpointing instance survives a PE restart with its state intact.
func TestCheckpointStorePublicAPI(t *testing.T) {
	var _ streams.StatefulOperator = (*statefulPublicOp)(nil)
	store := streams.NewMemCheckpointStore()
	inst, err := streams.NewInstance(streams.InstanceOptions{
		Hosts:           []streams.HostSpec{{Name: "h1"}},
		MetricsInterval: time.Hour,
		Checkpoint:      store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	schema := streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})
	b := streams.NewApp("publicCkpt")
	src := b.AddOperator("src", "Beacon").Out(schema).Param("count", "0")
	mid := b.AddOperator("mid", "PublicStateful").In(schema).Out(schema)
	sink := b.AddOperator("sink", "CollectSink").In(schema).Param("collectorId", "public-ckpt")
	b.Connect(src, 0, mid, 0)
	b.Connect(mid, 0, sink, 0)
	app, err := b.Build(streams.BuildOptions{Fusion: streams.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	streams.Collector("public-ckpt").Reset()
	publicRestored.Store(0)
	job, err := inst.SAM.SubmitJob(app, streams.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = inst.SAM.CancelJob(job) }()
	waitFor(t, "flow", func() bool { return streams.Collector("public-ckpt").Len() > 20 })

	var midPE streams.PEID
	info, _ := inst.SAM.Job(job)
	for _, pe := range info.PEs {
		for _, op := range pe.Operators {
			if op == "mid" {
				midPE = pe.ID
			}
		}
	}
	if err := inst.SAM.CheckpointPE(midPE); err != nil {
		t.Fatal(err)
	}
	if err := inst.SAM.KillPE(midPE, "test fault"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "crash observed", func() bool {
		info, _ := inst.SAM.Job(job)
		for _, pe := range info.PEs {
			if pe.ID == midPE {
				return pe.State == "crashed"
			}
		}
		return false
	})
	if err := inst.SAM.RestartPE(midPE); err != nil {
		t.Fatal(err)
	}
	if publicRestored.Load() <= 0 {
		t.Fatalf("restored total = %d", publicRestored.Load())
	}
	n := streams.Collector("public-ckpt").Len()
	waitFor(t, "flow after restore", func() bool { return streams.Collector("public-ckpt").Len() > n })
}
