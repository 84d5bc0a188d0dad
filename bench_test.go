// Root benchmark harness: one benchmark (or benchmark pair) per paper
// experiment (E1–E3 drive the sentiment, failover and composition
// scenarios of internal/exp at a reduced scale). Run with:
//
//	go test -bench=. -benchmem .
package streamorca_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/apps"
	"streamorca/internal/baseline"
	"streamorca/internal/exp"
	"streamorca/internal/extjob"
	"streamorca/internal/graph"
	"streamorca/internal/ids"
	"streamorca/internal/ops"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/orca"
	"streamorca/streams"
)

var benchSeq atomic.Int64

func buniq(p string) string { return fmt.Sprintf("bench-%s-%d", p, benchSeq.Add(1)) }

var benchSchema = streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})

func benchNoop() orca.Routine {
	return orca.NewRoutine("noop", func(*orca.SetupContext) error { return nil })
}

func benchInstance(b *testing.B, hosts ...string) *streams.Instance {
	b.Helper()
	specs := make([]streams.HostSpec, len(hosts))
	for i, h := range hosts {
		specs[i] = streams.HostSpec{Name: h}
	}
	inst, err := streams.NewInstance(streams.InstanceOptions{
		Hosts: specs, MetricsInterval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inst.Close)
	return inst
}

// BenchmarkE1SentimentAdaptation runs the full Figure 8 control loop
// (shift → threshold crossing → batch job → recovery) once per iteration.
func BenchmarkE1SentimentAdaptation(b *testing.B) {
	cfg := exp.E1Config{
		TweetPeriod: 50 * time.Microsecond, ShiftAt: 1500, RecentWindow: 200,
		Threshold: 1.0, JobLatency: 10 * time.Millisecond,
		Suppression: 100 * time.Millisecond, PullEvery: 2 * time.Millisecond,
		MaxDuration: 30 * time.Second,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunE1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2FailoverReaction runs the Figure 9 failover (kill → promote
// → restart → window refill) once per iteration and reports the failover
// latency.
func BenchmarkE2FailoverReaction(b *testing.B) {
	cfg := exp.E2Config{
		Window: 200 * time.Millisecond, TickPeriod: time.Millisecond,
		Sample: 20 * time.Millisecond, MaxDuration: 30 * time.Second,
	}
	var totalFailoverMs float64
	for i := 0; i < b.N; i++ {
		out, err := exp.RunE2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		totalFailoverMs += out.Report.Metrics["failover_ms"]
	}
	b.ReportMetric(totalFailoverMs*1000/float64(b.N), "failover-us/op")
}

// BenchmarkE3DynamicComposition runs the Figure 10 expansion/contraction
// cycle once per iteration.
func BenchmarkE3DynamicComposition(b *testing.B) {
	cfg := exp.E3Config{
		ProfilePeriod: 50 * time.Microsecond, Threshold: 500,
		PullEvery: 2 * time.Millisecond, MaxDuration: 30 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunE3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPipeline submits a 3-PE pipeline pushing b.N tuples and waits for
// the final punctuation; the reported ns/op is per tuple end-to-end.
func benchPipeline(b *testing.B, withOrca bool) {
	inst := benchInstance(b, "h1")
	collector := buniq("e5")
	ops.ResetCollector(collector)
	bl := streams.NewApp("BenchPipe")
	src := bl.AddOperator("src", "Beacon").Out(benchSchema).Param("count", fmt.Sprint(b.N))
	fn := bl.AddOperator("fn", "Functor").In(benchSchema).Out(benchSchema).Param("addInt", "seq:1")
	sink := bl.AddOperator("sink", "CollectSink").In(benchSchema).
		Param("collectorId", collector).Param("limit", "1")
	bl.Connect(src, 0, fn, 0)
	bl.Connect(fn, 0, sink, 0)
	app, err := bl.Build(streams.BuildOptions{Fusion: streams.FuseNone})
	if err != nil {
		b.Fatal(err)
	}

	var svc *orca.Service
	if withOrca {
		svc, err = orca.NewRoutineService(orca.Config{
			Name: buniq("orca"), SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
		}, benchNoop())
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.RegisterApplication(app); err != nil {
			b.Fatal(err)
		}
		if err := svc.Start(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(svc.Stop)
		if err := svc.RegisterEventScope(orca.NewOperatorMetricScope("all")); err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		b.Cleanup(func() { close(stop) })
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-time.After(2 * time.Millisecond):
					inst.FlushMetrics()
					svc.PullMetricsNow()
				}
			}
		}()
	}

	b.ResetTimer()
	if withOrca {
		if _, err := svc.SubmitApplication("BenchPipe", nil); err != nil {
			b.Fatal(err)
		}
	} else {
		if _, err := inst.SAM.SubmitJob(app, streams.SubmitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	awaitFinal(b, collector)
}

// awaitFinal spins until the collector has seen the pipeline's final
// punctuation, failing the benchmark after 30 s instead of hanging.
func awaitFinal(b *testing.B, collector string) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for ops.Collector(collector).Finals() != 1 {
		if time.Now().After(deadline) {
			b.Fatalf("collector %s: no final punctuation within 30s", collector)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkE5HotPathNoOrca measures per-tuple pipeline cost without an
// orchestrator attached.
func BenchmarkE5HotPathNoOrca(b *testing.B) { benchPipeline(b, false) }

// BenchmarkE5HotPathWithOrca measures the same pipeline with an
// orchestrator pulling broad metric scopes every 2 ms — §3's claim is
// that the difference stays marginal.
func BenchmarkE5HotPathWithOrca(b *testing.B) { benchPipeline(b, true) }

// BenchmarkE6FailureReactionAuto measures kill→running latency under
// SAM's auto-restart flag.
func BenchmarkE6FailureReactionAuto(b *testing.B) {
	inst := benchInstance(b, "h1")
	collector := buniq("e6")
	ops.ResetCollector(collector)
	bl := streams.NewApp("BenchAuto")
	src := bl.AddOperator("src", "Beacon").Out(benchSchema).Param("count", "0").Param("period", "1ms")
	sink := bl.AddOperator("sink", "CollectSink").In(benchSchema).
		Param("collectorId", collector).Param("limit", "10")
	bl.Connect(src, 0, sink, 0)
	app, err := bl.Build(streams.BuildOptions{Fusion: streams.FuseNone})
	if err != nil {
		b.Fatal(err)
	}
	for i := range app.PEs {
		app.PEs[i].Restart = true
	}
	job, err := inst.SAM.SubmitJob(app, streams.SubmitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sinkPE := findPE(b, inst, job, "sink")
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := inst.SAM.KillPE(sinkPE, "bench"); err != nil {
			b.Fatal(err)
		}
		waitRestarts(b, inst, job, sinkPE, i)
	}
}

// BenchmarkE6FailureReactionOrca measures the same recovery through the
// orchestrator's PE-failure handler (one extra hop).
func BenchmarkE6FailureReactionOrca(b *testing.B) {
	inst := benchInstance(b, "h1")
	collector := buniq("e6o")
	ops.ResetCollector(collector)
	bl := streams.NewApp("BenchOrcaRestart")
	src := bl.AddOperator("src", "Beacon").Out(benchSchema).Param("count", "0").Param("period", "1ms")
	sink := bl.AddOperator("sink", "CollectSink").In(benchSchema).
		Param("collectorId", collector).Param("limit", "10")
	bl.Connect(src, 0, sink, 0)
	app, err := bl.Build(streams.BuildOptions{Fusion: streams.FuseNone})
	if err != nil {
		b.Fatal(err)
	}
	policy := orca.NewRoutine("restart", func(sc *orca.SetupContext) error {
		return sc.Subscribe(orca.OnPEFailure(
			orca.NewPEFailureScope("f").AddApplicationFilter("BenchOrcaRestart"),
			func(ctx *orca.PEFailureContext, act *orca.Actions) error {
				return act.RestartPE(ctx.PE)
			}))
	})
	svc, err := orca.NewRoutineService(orca.Config{
		Name: buniq("orca"), SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, policy)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.RegisterApplication(app); err != nil {
		b.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Stop)
	job, err := svc.SubmitApplication("BenchOrcaRestart", nil)
	if err != nil {
		b.Fatal(err)
	}
	sinkPE := findPE(b, inst, job, "sink")
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := svc.KillPE(sinkPE, "bench"); err != nil {
			b.Fatal(err)
		}
		waitRestarts(b, inst, job, sinkPE, i)
	}
}

func findPE(b *testing.B, inst *streams.Instance, job streams.JobID, op string) streams.PEID {
	b.Helper()
	info, ok := inst.SAM.Job(job)
	if !ok {
		b.Fatal("job missing")
	}
	for _, p := range info.PEs {
		for _, o := range p.Operators {
			if o == op {
				return p.ID
			}
		}
	}
	b.Fatalf("no PE holds %q", op)
	return 0
}

func waitRestarts(b *testing.B, inst *streams.Instance, job streams.JobID, pe streams.PEID, want int) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, _ := inst.SAM.Job(job)
		for _, p := range info.PEs {
			if p.ID == pe && p.State == "running" && p.Restarts >= want {
				return
			}
		}
		time.Sleep(20 * time.Microsecond)
	}
	b.Fatalf("PE never reached %d restarts", want)
}

// e7Graph builds a deep composite nest with many operators for the scope
// matching comparison.
func e7Graph(b *testing.B, depth, opsPerLevel int) *graph.Graph {
	b.Helper()
	app := &adl.Application{Name: "E7"}
	parent := ""
	intAttr := []tuple.Attribute{{Name: "v", Type: tuple.Int}}
	var peOps []string
	for d := 0; d < depth; d++ {
		name := fmt.Sprintf("comp%d", d)
		app.Composites = append(app.Composites, adl.CompositeInstance{
			Name: name, Kind: fmt.Sprintf("kind%d", d), Parent: parent,
		})
		for i := 0; i < opsPerLevel; i++ {
			opName := fmt.Sprintf("op_%d_%d", d, i)
			app.Operators = append(app.Operators, adl.Operator{
				Name: opName, Kind: "Split", Composite: name,
				Outputs: []adl.Port{{Schema: intAttr}},
			})
			peOps = append(peOps, opName)
		}
		parent = name
	}
	app.PEs = []adl.PE{{Index: 0, Operators: peOps}}
	if err := app.Validate(); err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(app, 1, map[int]ids.PEID{0: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkE7ScopeMatchFilterAPI evaluates composite-containment checks
// through the memoised chain lookup the scope filters use (§4.1).
func BenchmarkE7ScopeMatchFilterAPI(b *testing.B) {
	g := e7Graph(b, 8, 16)
	names := g.OperatorNames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := names[i%len(names)]
		g.InCompositeType(op, "kind0")
	}
}

// BenchmarkE7NaiveSQL evaluates the same predicate with the recursive
// SQL-style CompPairs closure the paper contrasts against.
func BenchmarkE7NaiveSQL(b *testing.B) {
	g := e7Graph(b, 8, 16)
	names := g.OperatorNames()
	q := graph.NaiveQuery{CompositeKinds: []string{"kind0"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := names[i%len(names)]
		graph.NaiveMatch(g, op, "m", q)
	}
}

// BenchmarkE8EventDelivery measures user events through the full match →
// queue → dispatch pipeline (§4.2).
func BenchmarkE8EventDelivery(b *testing.B) {
	inst := benchInstance(b, "h1")
	var delivered atomic.Int64
	logic := orca.NewRoutine("count", func(sc *orca.SetupContext) error {
		return sc.Subscribe(orca.OnUserEvent(orca.NewUserEventScope("all"),
			func(ctx *orca.UserEventContext, act *orca.Actions) error {
				delivered.Add(1)
				return nil
			}))
	})
	svc, err := orca.NewRoutineService(orca.Config{
		Name: buniq("orca"), SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, logic)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Stop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.RaiseUserEvent("tick", nil)
	}
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < int64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("%d of %d user events delivered within 30s", delivered.Load(), b.N)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// BenchmarkE9DependencyScheduler measures one Figure 7 start/stop/GC
// cycle of the application-set manager per iteration.
func BenchmarkE9DependencyScheduler(b *testing.B) {
	inst := benchInstance(b, "h1", "h2")
	svc, err := orca.NewRoutineService(orca.Config{
		Name: buniq("orca"), SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, benchNoop())
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Stop)
	names := []string{"fb", "tw", "fox", "msnbc", "sn"}
	for _, n := range names {
		bl := streams.NewApp(n)
		src := bl.AddOperator("src", "Beacon").Out(benchSchema).Param("count", "0").Param("period", "1ms")
		sink := bl.AddOperator("sink", "CountSink").In(benchSchema)
		bl.Connect(src, 0, sink, 0)
		app, err := bl.Build(streams.BuildOptions{Fusion: streams.FuseAll})
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.RegisterApplication(app); err != nil {
			b.Fatal(err)
		}
		if err := svc.RegisterAppConfig(orca.AppConfig{
			ID: n, AppName: n, GarbageCollectable: true, GCTimeout: time.Millisecond,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for _, dep := range []string{"fb", "tw"} {
		if err := svc.RegisterDependency("sn", dep, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.StartApp("sn"); err != nil {
			b.Fatal(err)
		}
		if err := svc.StopApp("sn"); err != nil {
			b.Fatal(err)
		}
		// Wait out the GC of fb/tw so the next iteration resubmits.
		deadline := time.Now().Add(5 * time.Second)
		for len(svc.RunningConfigs()) != 0 {
			if time.Now().After(deadline) {
				b.Fatal("GC never drained")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// BenchmarkE10Embedded runs the Figure 1 embedded-adaptation sentiment
// graph to completion (adaptation included) — the baseline whose control
// logic rides the data path.
func BenchmarkE10Embedded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := benchInstance(b, "h1")
		modelID, storeID := buniq("m"), buniq("s")
		extjob.SetModel(modelID, extjob.NewModel("flash", "screen"))
		collector := buniq("c")
		ops.ResetCollector(collector)
		app, err := baseline.EmbeddedSentimentApp(baseline.EmbeddedConfig{
			SentimentConfig: apps.SentimentConfig{
				Name: "Embedded", Collector: collector, ModelID: modelID, StoreID: storeID,
				Seed: 42, Count: 4000, Causes: "flash,screen",
				ShiftAt: 2000, CausesAfter: "antenna", RecentWindow: 200,
			},
			RunnerID: buniq("r"), Threshold: 1.0,
			Suppression: 50 * time.Millisecond, JobLatency: 5 * time.Millisecond, MinSupport: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{}); err != nil {
			b.Fatal(err)
		}
		awaitFinal(b, collector)
		inst.Close()
	}
}

// BenchmarkE10Orchestrated runs the same pipeline without embedded
// control operators, the adaptation living in a reusable ORCA policy.
func BenchmarkE10Orchestrated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := benchInstance(b, "h1")
		modelID, storeID := buniq("m"), buniq("s")
		extjob.SetModel(modelID, extjob.NewModel("flash", "screen"))
		collector := buniq("c")
		ops.ResetCollector(collector)
		app, err := apps.SentimentApp(apps.SentimentConfig{
			Name: "Clean", Collector: collector, ModelID: modelID, StoreID: storeID,
			Seed: 42, Count: 4000, Causes: "flash,screen",
			ShiftAt: 2000, CausesAfter: "antenna", RecentWindow: 200,
		})
		if err != nil {
			b.Fatal(err)
		}
		svc, err := orca.NewRoutineService(orca.Config{
			Name: buniq("orca"), SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
		}, benchNoop())
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.RegisterApplication(app); err != nil {
			b.Fatal(err)
		}
		if err := svc.Start(); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.SubmitApplication("Clean", nil); err != nil {
			b.Fatal(err)
		}
		awaitFinal(b, collector)
		svc.Stop()
		inst.Close()
	}
}

// BenchmarkGraphInspection covers the §4.2 inspection queries the ORCA
// logic combines with event contexts.
func BenchmarkGraphInspection(b *testing.B) {
	g := e7Graph(b, 4, 64)
	names := g.OperatorNames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := names[i%len(names)]
		if _, ok := g.PEOfOperator(op); !ok {
			b.Fatal("lookup failed")
		}
		g.EnclosingComposite(op)
	}
}
