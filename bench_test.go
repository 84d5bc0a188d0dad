// Root micro-benchmarks: the paper-§6 costs no scenario and no
// go run ./bench workload covers — scope matching against the naive
// closure (E7), event delivery (E8), the dependency scheduler (E9),
// embedded against orchestrated adaptation (E10), graph inspection.
// Throughput, recovery and event-rate numbers come from go run ./bench;
// the paper's use cases run as orcarun scenarios. Run with:
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
	"streamorca/internal/extjob"
	"streamorca/internal/graph"
	"streamorca/internal/ids"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
	"streamorca/orca"
	"streamorca/streams"
)

var benchSchema = streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})

func benchNoop() orca.Routine {
	return orca.NewRoutine("noop", func(*orca.SetupContext) error { return nil })
}

// awaitFinal spins until the instance's collector has seen the
// pipeline's final punctuation, failing the benchmark after 30 s
// instead of hanging.
func awaitFinal(b *testing.B, inst *streams.Instance, collector string) {
	b.Helper()
	coll := streams.Collector(inst, collector)
	if !wait.Until(30*time.Second, 100*time.Microsecond, func() bool { return coll.Finals() == 1 }) {
		b.Fatalf("collector %s: no final punctuation within 30s", collector)
	}
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
	inst := platformtest.Boot(b, streams.InstanceOptions{})
	var delivered atomic.Int64
	logic := orca.NewRoutine("count", func(sc *orca.SetupContext) error {
		return sc.Subscribe(orca.OnUserEvent(orca.NewUserEventScope("all"),
			func(ctx *orca.UserEventContext, act *orca.Actions) error {
				delivered.Add(1)
				return nil
			}))
	})
	svc, err := orca.NewRoutineService(orca.Config{
		Name: "orca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
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
	if !wait.Until(30*time.Second, 50*time.Microsecond, func() bool { return delivered.Load() >= int64(b.N) }) {
		b.Fatalf("%d of %d user events delivered within 30s", delivered.Load(), b.N)
	}
}

// BenchmarkE9DependencyScheduler measures one Figure 7 start/stop/GC
// cycle of the application-set manager per iteration.
func BenchmarkE9DependencyScheduler(b *testing.B) {
	inst := platformtest.Boot(b, streams.InstanceOptions{Hosts: platformtest.Hosts("h1", "h2")})
	svc, err := orca.NewRoutineService(orca.Config{
		Name: "orca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
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
		if !wait.Until(5*time.Second, 100*time.Microsecond, func() bool { return len(svc.RunningConfigs()) == 0 }) {
			b.Fatal("GC never drained")
		}
	}
}

// BenchmarkE10Embedded runs the Figure 1 embedded-adaptation sentiment
// graph to completion (adaptation included) — the baseline whose control
// logic rides the data path.
func BenchmarkE10Embedded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := platformtest.Boot(b, streams.InstanceOptions{})
		extjob.ModelIn(inst.SAM.Objects(), "m", "flash", "screen")
		app, err := baseline.EmbeddedSentimentApp(baseline.EmbeddedConfig{
			SentimentConfig: apps.SentimentConfig{
				Name: "Embedded", Collector: "c", ModelID: "m", StoreID: "s",
				Seed: 42, Count: 4000, Causes: "flash,screen",
				ShiftAt: 2000, CausesAfter: "antenna", RecentWindow: 200,
			},
			RunnerID: "r", Threshold: 1.0,
			Suppression: 50 * time.Millisecond, JobLatency: 5 * time.Millisecond, MinSupport: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{}); err != nil {
			b.Fatal(err)
		}
		awaitFinal(b, inst, "c")
		inst.Close()
	}
}

// BenchmarkE10Orchestrated runs the same pipeline without embedded
// control operators, the adaptation living in a reusable ORCA policy.
func BenchmarkE10Orchestrated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := platformtest.Boot(b, streams.InstanceOptions{})
		extjob.ModelIn(inst.SAM.Objects(), "m", "flash", "screen")
		app, err := apps.SentimentApp(apps.SentimentConfig{
			Name: "Clean", Collector: "c", ModelID: "m", StoreID: "s",
			Seed: 42, Count: 4000, Causes: "flash,screen",
			ShiftAt: 2000, CausesAfter: "antenna", RecentWindow: 200,
		})
		if err != nil {
			b.Fatal(err)
		}
		svc, err := orca.NewRoutineService(orca.Config{
			Name: "orca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
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
		awaitFinal(b, inst, "c")
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
