package orca_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"streamorca/internal/platform/platformtest"
	"streamorca/internal/wait"
	"streamorca/orca"
	"streamorca/streams"
)

// TestPublicRoutineSurface drives the composable Routine API through the
// facade: typed subscriptions, guard combinators, Compose, and
// setup-error propagation out of Start.
func TestPublicRoutineSurface(t *testing.T) {
	inst := platformtest.Boot(t, streams.InstanceOptions{})

	schema := streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})
	b := streams.NewApp("rapp")
	src := b.AddOperator("src", "Beacon").Out(schema).Param("count", "0").Param("period", "1ms")
	sink := b.AddOperator("sink", "CollectSink").In(schema).Param("collectorId", "orca-routine")
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(streams.BuildOptions{Fusion: streams.FuseNone})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var users []string
	restarted := make(chan streams.PEID, 1)

	// Two independent concerns composed into one routine: a guarded
	// user-event counter and a PE-failure restarter.
	userRoutine := orca.NewRoutine("users", func(sc *orca.SetupContext) error {
		guarded := orca.Debounce(2,
			func(ctx *orca.UserEventContext) bool { return ctx.Name == "bump" },
			func(ctx *orca.UserEventContext, act *orca.Actions) error {
				mu.Lock()
				users = append(users, ctx.Name)
				mu.Unlock()
				return nil
			})
		return sc.Subscribe(orca.OnUserEvent(orca.NewUserEventScope("u"), guarded))
	})
	restartRoutine := orca.NewRoutine("restart", func(sc *orca.SetupContext) error {
		if _, err := sc.Actions().SubmitApplication("rapp", nil); err != nil {
			return err
		}
		return sc.Subscribe(orca.OnPEFailure(
			orca.NewPEFailureScope("pf").AddApplicationFilter("rapp"),
			func(ctx *orca.PEFailureContext, act *orca.Actions) error {
				if err := act.RestartPE(ctx.PE); err != nil {
					return err
				}
				restarted <- ctx.PE
				return nil
			}))
	})

	svc, err := orca.NewRoutineService(orca.Config{
		Name: "routinePublic", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, orca.Compose(userRoutine, restartRoutine))
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

	// Setup already submitted the application: the job is managed before
	// the first event is delivered.
	jobs := svc.ManagedJobs()
	if len(jobs) != 1 || jobs[0].App != "rapp" {
		t.Fatalf("managed jobs after Start = %+v", jobs)
	}
	wait.For(t, "flow", func() bool { return streams.Collector(inst, "orca-routine").Len() > 3 })

	// Debounce: the first bump is absorbed, the second fires.
	svc.RaiseUserEvent("bump", nil)
	svc.RaiseUserEvent("bump", nil)
	wait.For(t, "debounced user event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(users) == 1
	})

	g, _ := svc.Graph(jobs[0].Job)
	pe, _ := g.PEOfOperator("sink")
	if err := svc.KillPE(pe, "routine test"); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-restarted:
		if got != pe {
			t.Fatalf("restarted %v, want %v", got, pe)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("failure handler never ran")
	}
	if st := svc.Stats(); st.HandlerErrors != 0 {
		t.Fatalf("unexpected handler errors: %+v", st)
	}
}

// TestPublicRoutineSetupErrorSurfaces: a Setup error fails Start through
// the facade with the routine's name attached.
func TestPublicRoutineSetupErrorSurfaces(t *testing.T) {
	inst := platformtest.Boot(t, streams.InstanceOptions{})
	sentinel := errors.New("no such application")
	svc, err := orca.NewRoutineService(orca.Config{
		Name: "failingPublic", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, orca.NewRoutine("doomed", func(sc *orca.SetupContext) error { return sentinel }))
	if err != nil {
		t.Fatal(err)
	}
	startErr := svc.Start()
	if !errors.Is(startErr, sentinel) {
		t.Fatalf("Start error = %v, want wrapped sentinel", startErr)
	}
	if !strings.Contains(startErr.Error(), `"doomed"`) {
		t.Fatalf("Start error lacks routine name: %v", startErr)
	}
}
