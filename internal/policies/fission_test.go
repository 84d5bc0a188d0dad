package policies

import (
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/ops"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

// fissionApp builds a runnable application with a width-1 parallel
// region: beacon -> [split | agg replicas | merge] -> sink. The beacon
// emits slowly (one tuple an hour) so the dataplane idles while the
// tests drive the routine's gate with synthetic metric contexts.
func fissionApp(t *testing.T, name string) *adl.Application {
	t.Helper()
	s := tuple.MustSchema(
		tuple.Attribute{Name: "user", Type: tuple.String},
		tuple.Attribute{Name: "score", Type: tuple.Float},
	)
	b := compiler.NewApp(name)
	src := b.AddOperator("src", ops.KindBeacon).Param("period", "1h").Out(s)
	agg := b.AddOperator("agg", ops.KindAggregate).
		Param("window", "1h").Param("groupBy", "user").Param("valueAttr", "score").
		In(s).Out(s).Parallel(1)
	sink := b.AddOperator("sink", ops.KindCountSink).In(s)
	b.Connect(src, 0, agg, 0)
	b.Connect(agg, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func fissionFixture(t *testing.T, p *Fission) (*core.Service, *vclock.Manual) {
	t.Helper()
	inst := newInst(t, "h1", "h2")
	clock := vclock.NewManual(time.Unix(0, 0))
	svc, err := core.NewRoutineService(core.Config{
		Name: "fzOrca", SAM: inst.SAM, SRM: inst.SRM, Clock: clock, PullInterval: time.Hour,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterApplication(fissionApp(t, p.App)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return svc, clock
}

// rateCtx fabricates one PE rate observation the way the dispatch loop
// would deliver it.
func rateCtx(job ids.JobID, pe ids.PEID, metric string, v int64) *core.PEMetricContext {
	return &core.PEMetricContext{Job: job, App: "FZ", PE: pe, Metric: metric, Value: v}
}

// width is the region's width on the platform, the only copy there is.
func width(t *testing.T, p *Fission, svc *core.Service) int {
	t.Helper()
	w, ok := svc.RegionWidth(p.Job(), p.Region)
	if !ok {
		t.Fatal("no region width")
	}
	return w
}

func splitPEOf(t *testing.T, p *Fission, svc *core.Service) ids.PEID {
	t.Helper()
	pe, ok := svc.PEOfOperator(p.Job(), p.Region+"/split")
	if !ok {
		t.Fatal("no split PE")
	}
	return pe
}

func TestFissionWidensAfterDebounce(t *testing.T) {
	p := &Fission{App: "FZ", Region: "agg", WidenAboveRate: 1000, MaxWidth: 3}
	svc, _ := fissionFixture(t, p)
	if w := width(t, p, svc); w != 1 {
		t.Fatalf("initial width = %d", w)
	}
	split := splitPEOf(t, p, svc)
	drive := func(metric string, v int64) {
		_ = p.gate(rateCtx(p.Job(), split, metric, v), svc.Actions())
	}

	// Egress observations never advance the widen streak, however
	// large.
	drive(metrics.PEEgressRate, 9000)
	drive(metrics.PEEgressRate, 9000)
	if p.Widenings() != 0 {
		t.Fatalf("egress observations widened: %d", p.Widenings())
	}
	// One breach, then a healthy observation: the streak resets.
	drive(metrics.PEIngestRate, 1500)
	drive(metrics.PEIngestRate, 10)
	drive(metrics.PEIngestRate, 1500)
	if p.Widenings() != 0 {
		t.Fatalf("widened without consecutive breaches: %d", p.Widenings())
	}
	// The second consecutive breach actuates a real resize.
	drive(metrics.PEIngestRate, 1600)
	if w := width(t, p, svc); p.Widenings() != 1 || w != 2 {
		t.Fatalf("widenings=%d width=%d", p.Widenings(), w)
	}
	log := p.Log()
	if len(log) != 1 || log[0].From != 1 || log[0].To != 2 || log[0].IngestPerSec != 1600 {
		t.Fatalf("log = %+v", log)
	}
	// A foreign PE's ingest rate never reaches the gate.
	_ = p.gate(rateCtx(p.Job(), split+1000, metrics.PEIngestRate, 9999), svc.Actions())
	_ = p.gate(rateCtx(p.Job(), split+1000, metrics.PEIngestRate, 9999), svc.Actions())
	if p.Widenings() != 1 {
		t.Fatalf("foreign PE widened: %d", p.Widenings())
	}
}

func TestFissionRespectsMaxWidth(t *testing.T) {
	p := &Fission{App: "FZ", Region: "agg", WidenAboveRate: 100, MaxWidth: 2}
	svc, _ := fissionFixture(t, p)
	split := splitPEOf(t, p, svc)
	for i := 0; i < 6; i++ {
		_ = p.gate(rateCtx(p.Job(), split, metrics.PEIngestRate, 500), svc.Actions())
	}
	if w := width(t, p, svc); p.Widenings() != 1 || w != 2 {
		t.Fatalf("cap ignored: widenings=%d width=%d", p.Widenings(), w)
	}
}

// TestFissionLogsQueueDepth pins the width log's queue depth: the
// worst operator queue of the newest pull round, which a new round
// starts over.
func TestFissionLogsQueueDepth(t *testing.T) {
	p := &Fission{App: "FZ", Region: "agg", WidenAboveRate: 100}
	svc, _ := fissionFixture(t, p)
	split := splitPEOf(t, p, svc)
	queue := func(epoch uint64, v int64) {
		p.observeQueue(&core.OperatorMetricContext{Job: p.Job(), App: "FZ", Metric: metrics.OpQueueSize, Value: v, Epoch: epoch})
	}
	breach := func() {
		_ = p.gate(rateCtx(p.Job(), split, metrics.PEIngestRate, 500), svc.Actions())
	}
	queue(1, 40)
	queue(1, 500) // worst queue of the round
	queue(1, 60)
	breach()
	breach()
	queue(2, 5) // a new round starts the high-water mark over
	breach()
	breach()
	log := p.Log()
	if len(log) != 2 || log[0].QueueDepth != 500 || log[1].QueueDepth != 5 {
		t.Fatalf("log = %+v", log)
	}
}

func TestFissionCooldownSuppressesResizes(t *testing.T) {
	p := &Fission{App: "FZ", Region: "agg", WidenAboveRate: 100, MaxWidth: 3, Cooldown: 10 * time.Minute}
	svc, clock := fissionFixture(t, p)
	split := splitPEOf(t, p, svc)
	breach := func() {
		_ = p.gate(rateCtx(p.Job(), split, metrics.PEIngestRate, 500), svc.Actions())
	}
	breach()
	breach()
	if w := width(t, p, svc); w != 2 {
		t.Fatalf("width = %d", w)
	}
	// Still overloaded, but inside the cooldown: no second resize.
	breach()
	breach()
	breach()
	if w := width(t, p, svc); w != 2 {
		t.Fatalf("resized within cooldown: width = %d", w)
	}
	clock.Advance(10 * time.Minute)
	breach()
	breach()
	if w := width(t, p, svc); w != 3 {
		t.Fatalf("width after cooldown = %d", w)
	}
}
