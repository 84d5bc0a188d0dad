package orca_test

import (
	"sync"
	"testing"
	"time"

	"streamorca/internal/platform/platformtest"
	"streamorca/internal/wait"
	"streamorca/orca"
	"streamorca/streams"
)

// publicPolicy exercises the full public orchestration surface: typed
// subscriptions, timers, user events, actuation, inspection, and the
// dependency manager.
type publicPolicy struct {
	mu       sync.Mutex
	started  bool
	timers   int
	users    []string
	failures []orca.PEFailureContext
}

func (p *publicPolicy) Name() string { return "publicPolicy" }

func (p *publicPolicy) Setup(sc *orca.SetupContext) error {
	return sc.Subscribe(
		orca.OnStart(func(ctx *orca.OrcaStartContext, act *orca.Actions) error {
			p.mu.Lock()
			p.started = true
			p.mu.Unlock()
			return nil
		}),
		orca.OnTimer(orca.NewTimerScope("t"), func(ctx *orca.TimerContext, act *orca.Actions) error {
			p.mu.Lock()
			p.timers++
			p.mu.Unlock()
			return nil
		}),
		orca.OnUserEvent(orca.NewUserEventScope("u"), func(ctx *orca.UserEventContext, act *orca.Actions) error {
			p.mu.Lock()
			p.users = append(p.users, ctx.Name)
			p.mu.Unlock()
			return nil
		}),
		orca.OnPEFailure(orca.NewPEFailureScope("f").AddApplicationFilter("papp"),
			func(ctx *orca.PEFailureContext, act *orca.Actions) error {
				p.mu.Lock()
				p.failures = append(p.failures, *ctx)
				p.mu.Unlock()
				return act.RestartPE(ctx.PE)
			}),
	)
}

func noopRoutine() orca.Routine {
	return orca.NewRoutine("noop", func(*orca.SetupContext) error { return nil })
}

func TestPublicOrchestrationSurface(t *testing.T) {
	inst := platformtest.Boot(t, streams.InstanceOptions{})

	schema := streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})
	b := streams.NewApp("papp")
	src := b.AddOperator("src", "Beacon").Out(schema).Param("count", "0").Param("period", "1ms")
	sink := b.AddOperator("sink", "CollectSink").In(schema).Param("collectorId", "orca-public")
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(streams.BuildOptions{Fusion: streams.FuseNone})
	if err != nil {
		t.Fatal(err)
	}

	policy := &publicPolicy{}
	svc, err := orca.NewRoutineService(orca.Config{
		Name: "publicOrca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	wait.For(t, "start", func() bool {
		policy.mu.Lock()
		defer policy.mu.Unlock()
		return policy.started
	})

	job, err := svc.SubmitApplication("papp", nil)
	if err != nil {
		t.Fatal(err)
	}
	wait.For(t, "flow", func() bool { return streams.Collector(inst, "orca-public").Len() > 3 })

	// Inspection through the facade.
	g, ok := svc.Graph(job)
	if !ok {
		t.Fatal("no graph")
	}
	pe, ok := g.PEOfOperator("sink")
	if !ok {
		t.Fatal("no sink PE")
	}
	if ops := svc.OperatorsInPE(pe); len(ops) != 1 || ops[0].Name != "sink" {
		t.Fatalf("OperatorsInPE = %+v", ops)
	}

	// Failure handling + actuation through the routine's handler.
	if err := svc.KillPE(pe, "public test"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "failure handled", func() bool {
		policy.mu.Lock()
		defer policy.mu.Unlock()
		return len(policy.failures) == 1
	})
	policy.mu.Lock()
	f := policy.failures[0]
	policy.mu.Unlock()
	if f.PE != pe || f.App != "papp" || f.Reason != "public test" {
		t.Fatalf("failure ctx = %+v", f)
	}

	// Timers and user events.
	if err := svc.StartTimer("tick", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "timer", func() bool {
		policy.mu.Lock()
		defer policy.mu.Unlock()
		return policy.timers == 1
	})
	svc.RaiseUserEvent("hello", map[string]string{"k": "v"})
	wait.For(t, "user event", func() bool {
		policy.mu.Lock()
		defer policy.mu.Unlock()
		return len(policy.users) == 1 && policy.users[0] == "hello"
	})

	// ErrUnmanagedJob surfaces through the facade.
	if err := svc.CancelJob(99999); err != orca.ErrUnmanagedJob {
		t.Fatalf("CancelJob(unknown) = %v", err)
	}
	if st := svc.Stats(); st.ManagedJobs != 1 || st.Delivered == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPublicCloserRunsOnStop: the teardown surface works through the
// facade — a Closer routine cancels its job during Stop, while the
// actuation surface is still live.
func TestPublicCloserRunsOnStop(t *testing.T) {
	inst := platformtest.Boot(t, streams.InstanceOptions{})

	schema := streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})
	b := streams.NewApp("closeapp")
	src := b.AddOperator("src", "Beacon").Out(schema).Param("count", "0").Param("period", "1ms")
	sink := b.AddOperator("sink", "CountSink").In(schema)
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(streams.BuildOptions{Fusion: streams.FuseAll})
	if err != nil {
		t.Fatal(err)
	}

	submitAndTearDown := orca.NewRoutine("submitAndTearDown", func(sc *orca.SetupContext) error {
		if _, err := sc.Actions().SubmitApplication("closeapp", nil); err != nil {
			return err
		}
		sc.OnStop(func(act *orca.Actions) {
			for _, j := range act.ManagedJobs() {
				_ = act.CancelJob(j.Job)
			}
		})
		return nil
	})
	svc, err := orca.NewRoutineService(orca.Config{
		Name: "closerOrca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, submitAndTearDown)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	if len(inst.SAM.Jobs()) != 1 {
		t.Fatalf("jobs after start = %+v", inst.SAM.Jobs())
	}
	svc.Stop()
	if left := inst.SAM.Jobs(); len(left) != 0 {
		t.Fatalf("stop hook did not cancel the job: %+v", left)
	}
}

func TestPublicDependencyManager(t *testing.T) {
	inst := platformtest.Boot(t, streams.InstanceOptions{})
	svc, err := orca.NewRoutineService(orca.Config{
		Name: "depOrca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, noopRoutine())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	schema := streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})
	for _, name := range []string{"up", "down"} {
		b := streams.NewApp(name)
		src := b.AddOperator("src", "Beacon").Out(schema).Param("count", "0").Param("period", "1ms")
		sink := b.AddOperator("sink", "CountSink").In(schema)
		b.Connect(src, 0, sink, 0)
		app, err := b.Build(streams.BuildOptions{Fusion: streams.FuseAll})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.RegisterApplication(app); err != nil {
			t.Fatal(err)
		}
		if err := svc.RegisterAppConfig(orca.AppConfig{
			ID: name, AppName: name, GarbageCollectable: true, GCTimeout: time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.RegisterDependency("down", "up", 0); err != nil {
		t.Fatal(err)
	}
	if err := svc.StartApp("down"); err != nil {
		t.Fatal(err)
	}
	running := svc.RunningConfigs()
	if len(running) != 2 {
		t.Fatalf("running = %v", running)
	}
	if err := svc.StopApp("up"); err == nil {
		t.Fatal("starvation check missing through facade")
	}
	if err := svc.StopApp("down"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "GC of up", func() bool { return len(svc.RunningConfigs()) == 0 })
}
