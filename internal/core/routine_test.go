package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamorca/internal/journal"
	"streamorca/internal/platform"
	"streamorca/internal/vclock"
)

// newRoutineHarness boots a platform plus a routine-mode service on a
// manual clock.
func newRoutineHarness(t *testing.T, routines ...Routine) (*platform.Instance, *Service, *vclock.Manual) {
	t.Helper()
	clock := vclock.NewManual(testEpoch)
	inst, err := platform.NewInstance(platform.Options{
		Clock:           clock,
		Hosts:           []platform.HostSpec{{Name: "h1"}},
		MetricsInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	svc, err := NewRoutineService(Config{
		Name:         "routineOrca",
		SAM:          inst.SAM,
		SRM:          inst.SRM,
		Clock:        clock,
		PullInterval: time.Hour,
	}, routines...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return inst, svc, clock
}

func TestNewRoutineServiceValidation(t *testing.T) {
	h := newHarness(t)
	cfg := Config{Name: "x", SAM: h.inst.SAM, SRM: h.inst.SRM}
	if _, err := NewRoutineService(cfg); err == nil {
		t.Fatal("no routines accepted")
	}
	if _, err := NewRoutineService(cfg, nil); err == nil {
		t.Fatal("nil routine accepted")
	}
	if _, err := NewRoutineService(cfg, NewRoutine("", func(*SetupContext) error { return nil })); err == nil {
		t.Fatal("unnamed routine accepted")
	}
}

// TestRoutineTypedSubscriptionsDispatch covers the tentpole end to end:
// Setup submits an application, subscribes typed handlers (start, job
// events, user events, timers, PE failures), and each handler receives
// its context with a working Actions surface.
func TestRoutineTypedSubscriptionsDispatch(t *testing.T) {
	var mu sync.Mutex
	var startName string
	var submitted []string
	var users []string
	var timers []string
	var failures []string
	restarted := make(chan struct{}, 1)

	r := NewRoutine("probe", func(sc *SetupContext) error {
		if sc.Routine() != "probe" {
			return fmt.Errorf("routine name = %q", sc.Routine())
		}
		return sc.Subscribe(
			OnStart(func(ctx *OrcaStartContext, act *Actions) error {
				mu.Lock()
				startName = ctx.Name
				mu.Unlock()
				return nil
			}),
			OnJobEvent(NewJobEventScope("jobs"), func(ctx *JobContext, act *Actions) error {
				mu.Lock()
				submitted = append(submitted, ctx.App)
				mu.Unlock()
				return nil
			}),
			OnUserEvent(NewUserEventScope("users").AddNameFilter("go"), func(ctx *UserEventContext, act *Actions) error {
				mu.Lock()
				users = append(users, ctx.Name)
				mu.Unlock()
				// Actuate from a handler: start a timer through Actions.
				return act.StartTimer("fromUser", time.Second)
			}),
			OnTimer(NewTimerScope("timers"), func(ctx *TimerContext, act *Actions) error {
				mu.Lock()
				timers = append(timers, ctx.Name)
				mu.Unlock()
				return nil
			}),
			OnPEFailure(NewPEFailureScope("pf").AddApplicationFilter("RT"), func(ctx *PEFailureContext, act *Actions) error {
				mu.Lock()
				failures = append(failures, ctx.Reason)
				mu.Unlock()
				if err := act.RestartPE(ctx.PE); err != nil {
					return err
				}
				restarted <- struct{}{}
				return nil
			}),
		)
	})
	_, svc, clock := newRoutineHarness(t, r)
	if err := svc.RegisterApplication(simpleApp(t, "RT", "rt", "0")); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "start subscription", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return startName == "routineOrca"
	})

	job, err := svc.SubmitApplication("RT", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(submitted) == 1 && submitted[0] == "RT"
	})

	svc.RaiseUserEvent("ignored", nil) // filtered out by the scope
	svc.RaiseUserEvent("go", nil)
	waitFor(t, "user event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(users) == 1
	})
	clock.Advance(time.Second)
	waitFor(t, "timer from handler actuation", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(timers) == 1 && timers[0] == "fromUser"
	})

	g, _ := svc.Graph(job)
	sinkPE, _ := g.PEOfOperator("sink")
	if err := svc.KillPE(sinkPE, "routine fault"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-restarted:
	case <-time.After(10 * time.Second):
		t.Fatal("failure handler never restarted the PE")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(failures) != 1 || failures[0] != "routine fault" {
		t.Fatalf("failures = %v", failures)
	}
}

// TestRoutineSetupErrorAbortsStart pins the satellite bugfix: setup
// failures (unknown application here) propagate out of Service.Start,
// the error names the routine, and the service is cleanly stopped.
func TestRoutineSetupErrorAbortsStart(t *testing.T) {
	r := NewRoutine("broken", func(sc *SetupContext) error {
		_, err := sc.Actions().SubmitApplication("Ghost", nil)
		return err
	})
	_, svc, _ := newRoutineHarness(t, r)
	err := svc.Start()
	if err == nil {
		t.Fatal("Start succeeded despite setup error")
	}
	if !strings.Contains(err.Error(), `routine "broken"`) {
		t.Fatalf("error lacks routine name: %v", err)
	}
	svc.Stop() // must be a safe no-op after the aborted start
	if err := svc.Start(); err == nil {
		t.Fatal("second Start after aborted setup accepted")
	}
}

// TestRoutineSetupDuplicateScopeKey covers the duplicate-key error path
// through Subscribe: the second subscription with the same key fails the
// whole Start.
func TestRoutineSetupDuplicateScopeKey(t *testing.T) {
	r := NewRoutine("dup", func(sc *SetupContext) error {
		return sc.Subscribe(
			OnUserEvent(NewUserEventScope("k"), func(*UserEventContext, *Actions) error { return nil }),
			OnTimer(NewTimerScope("k"), func(*TimerContext, *Actions) error { return nil }),
		)
	})
	_, svc, _ := newRoutineHarness(t, r)
	err := svc.Start()
	if err == nil || !strings.Contains(err.Error(), `"k"`) {
		t.Fatalf("duplicate scope key not rejected: %v", err)
	}
}

// TestComposeRunsRoutinesInOrderAndPrefixesErrors: Compose joins several
// routines into one service; a failing child aborts the rest and its
// name appears in the error chain.
func TestComposeRunsRoutinesInOrder(t *testing.T) {
	var order []string
	mk := func(name string) Routine {
		return NewRoutine(name, func(sc *SetupContext) error {
			order = append(order, name)
			return sc.Subscribe(OnUserEvent(NewUserEventScope(name), func(*UserEventContext, *Actions) error { return nil }))
		})
	}
	composed := Compose(mk("a"), mk("b"), mk("c"))
	if composed.Name() != "a+b+c" {
		t.Fatalf("composite name = %q", composed.Name())
	}
	_, svc, _ := newRoutineHarness(t, composed)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "a,b,c" {
		t.Fatalf("setup order = %v", order)
	}
}

// TestComposeNilRoutineSurfacesAsSetupError: a nil child must not panic
// at composition time; it fails Start with a descriptive error.
func TestComposeNilRoutineSurfacesAsSetupError(t *testing.T) {
	ok := NewRoutine("fine", func(sc *SetupContext) error { return nil })
	composed := Compose(ok, nil)
	_, svc, _ := newRoutineHarness(t, composed)
	err := svc.Start()
	if err == nil || !strings.Contains(err.Error(), "routine 1 is nil") {
		t.Fatalf("nil composed routine not reported: %v", err)
	}
}

func TestComposeChildErrorNamed(t *testing.T) {
	ok := NewRoutine("fine", func(sc *SetupContext) error { return nil })
	bad := NewRoutine("explodes", func(sc *SetupContext) error { return errors.New("boom") })
	never := NewRoutine("never", func(sc *SetupContext) error {
		t.Error("routine after the failing one was set up")
		return nil
	})
	_, svc, _ := newRoutineHarness(t, Compose(ok, bad, never))
	err := svc.Start()
	if err == nil || !strings.Contains(err.Error(), `routine "explodes"`) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("composite error = %v", err)
	}
}

// TestRoutineHandlerErrorsCounted: a handler error is journalled and counted
// in Stats.HandlerErrors; ErrSkipped is not.
func TestRoutineHandlerErrorsCounted(t *testing.T) {
	r := NewRoutine("errs", func(sc *SetupContext) error {
		return sc.Subscribe(OnUserEvent(NewUserEventScope("u"), func(ctx *UserEventContext, act *Actions) error {
			switch ctx.Name {
			case "fail":
				return errors.New("handler failure")
			case "skip":
				return ErrSkipped
			}
			return nil
		}))
	})
	_, svc, _ := newRoutineHarness(t, r)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	svc.RaiseUserEvent("fail", nil)
	svc.RaiseUserEvent("skip", nil)
	svc.RaiseUserEvent("ok", nil)
	waitFor(t, "events drained", func() bool { return svc.Stats().Delivered >= 4 }) // start + 3
	if got := svc.Stats().HandlerErrors; got != 1 {
		t.Fatalf("HandlerErrors = %d, want 1 (ErrSkipped must not count)", got)
	}
	var errs []journal.Event
	for _, e := range svc.ActuationJournal() {
		if e.Action == "handler-error" {
			errs = append(errs, e)
		}
	}
	if len(errs) != 1 || errs[0].Target != "errs" || errs[0].Err != "handler failure" || errs[0].TxID == 0 {
		t.Fatalf("journalled handler errors = %+v, want the one failure under its event's tx", errs)
	}
}

// closingRoutine is a Routine with a Closer teardown, for the stop-hook
// tests.
type closingRoutine struct {
	name    string
	setup   func(*SetupContext) error
	onClose func(*Actions)
}

func (c *closingRoutine) Name() string                 { return c.name }
func (c *closingRoutine) Setup(sc *SetupContext) error { return c.setup(sc) }
func (c *closingRoutine) Close(act *Actions)           { c.onClose(act) }

// TestStopHooksRunOnceInReverseOrder: Stop runs OnStop hooks and Closer
// teardowns exactly once, last-registered first, with the actuation
// surface still live; a second Stop does not re-run them.
func TestStopHooksRunOnceInReverseOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	note := func(step string, act *Actions) {
		if act.Stats().QueueDepth < 0 {
			t.Errorf("actuation surface dead during %s", step)
		}
		mu.Lock()
		order = append(order, step)
		mu.Unlock()
	}
	first := NewRoutine("first", func(sc *SetupContext) error {
		sc.OnStop(func(act *Actions) { note("first-stop", act) })
		return nil
	})
	second := &closingRoutine{
		name: "second",
		setup: func(sc *SetupContext) error {
			sc.OnStop(func(act *Actions) { note("second-stop", act) })
			return nil
		},
		onClose: func(act *Actions) { note("second-close", act) },
	}
	_, svc, _ := newRoutineHarness(t, first, second)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	svc.Stop() // idempotent: hooks must not run again
	mu.Lock()
	defer mu.Unlock()
	want := []string{"second-close", "second-stop", "first-stop"}
	if len(order) != len(want) {
		t.Fatalf("hooks ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hooks ran %v, want %v", order, want)
		}
	}
}

// TestStopHooksSkippedOnFailedStart: a Setup error aborts the start
// without running teardown hooks — the routines never finished
// acquiring what the hooks would release.
func TestStopHooksSkippedOnFailedStart(t *testing.T) {
	ran := false
	bad := Compose(
		NewRoutine("acquires", func(sc *SetupContext) error {
			sc.OnStop(func(*Actions) { ran = true })
			return nil
		}),
		NewRoutine("fails", func(sc *SetupContext) error {
			return fmt.Errorf("boom")
		}),
	)
	_, svc, _ := newRoutineHarness(t, bad)
	if err := svc.Start(); err == nil {
		t.Fatal("failed setup did not abort Start")
	}
	svc.Stop()
	if ran {
		t.Fatal("stop hook ran after aborted start")
	}
}

// TestComposeDelegatesClose: composing routines keeps their Closer
// teardowns, run in reverse order.
func TestComposeDelegatesClose(t *testing.T) {
	var mu sync.Mutex
	var order []string
	mk := func(name string) Routine {
		return &closingRoutine{
			name:  name,
			setup: func(*SetupContext) error { return nil },
			onClose: func(*Actions) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			},
		}
	}
	_, svc, _ := newRoutineHarness(t, Compose(mk("a"), NewRoutine("plain", func(*SetupContext) error { return nil }), mk("b")))
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("composite close order = %v, want [b a]", order)
	}
}

// --- guard combinators ---

// guardActions returns an Actions bound to a manual clock for driving
// guards directly.
func guardActions(t *testing.T) (*Actions, *vclock.Manual) {
	t.Helper()
	h := newHarness(t)
	return h.svc.Actions(), h.clock
}

type obs struct{ v float64 }

func TestThresholdAndAtLeastGuards(t *testing.T) {
	act, _ := guardActions(t)
	var fired int
	inner := func(*obs, *Actions) error { fired++; return nil }
	strict := Threshold(func(o *obs) (float64, bool) { return o.v, o.v >= 0 }, 1.0, inner)

	if err := strict(&obs{v: 1.0}, act); !errors.Is(err, ErrSkipped) {
		t.Fatalf("at-limit value fired strict threshold: %v", err)
	}
	if err := strict(&obs{v: -5}, act); !errors.Is(err, ErrSkipped) {
		t.Fatal("unevaluable observation fired")
	}
	if err := strict(&obs{v: 1.5}, act); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}

	incl := AtLeast(func(o *obs) (float64, bool) { return o.v, true }, 2.0, inner)
	if err := incl(&obs{v: 2.0}, act); err != nil {
		t.Fatal(err)
	}
	if err := incl(&obs{v: 1.9}, act); !errors.Is(err, ErrSkipped) {
		t.Fatal("below-limit value fired AtLeast")
	}
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestSuppressForGuard(t *testing.T) {
	act, clock := guardActions(t)
	var fired int
	failNext := false
	h := SuppressFor(10*time.Minute, func(*obs, *Actions) error {
		if failNext {
			return errors.New("actuation failed")
		}
		fired++
		return nil
	})
	if err := h(&obs{}, act); err != nil || fired != 1 {
		t.Fatalf("first invocation: err=%v fired=%d", err, fired)
	}
	if err := h(&obs{}, act); !errors.Is(err, ErrSkipped) {
		t.Fatal("second invocation not suppressed")
	}
	clock.Advance(10 * time.Minute)
	// A failed actuation must not arm the window...
	failNext = true
	if err := h(&obs{}, act); err == nil || errors.Is(err, ErrSkipped) {
		t.Fatalf("inner error not propagated: %v", err)
	}
	// ...so the immediate retry may fire.
	failNext = false
	if err := h(&obs{}, act); err != nil || fired != 2 {
		t.Fatalf("retry after failure: err=%v fired=%d", err, fired)
	}
}

func TestDebounceGuard(t *testing.T) {
	act, _ := guardActions(t)
	var fired int
	h := Debounce(3, func(o *obs) bool { return o.v > 0 }, func(*obs, *Actions) error {
		fired++
		return nil
	})
	bad, good := &obs{v: 0}, &obs{v: 1}
	for _, o := range []*obs{good, good, bad, good, good} {
		if err := h(o, act); !errors.Is(err, ErrSkipped) {
			t.Fatalf("fired early: %v", err)
		}
	}
	if err := h(good, act); err != nil || fired != 1 {
		t.Fatalf("third consecutive hold: err=%v fired=%d", err, fired)
	}
	// Firing resets the streak.
	if err := h(good, act); !errors.Is(err, ErrSkipped) {
		t.Fatal("streak not reset after firing")
	}
}

func TestOncePerEpochGuard(t *testing.T) {
	act, _ := guardActions(t)
	var fired int
	skipNext := false
	h := OncePerEpoch(func(o *obs) uint64 { return uint64(o.v) }, func(*obs, *Actions) error {
		if skipNext {
			return ErrSkipped
		}
		fired++
		return nil
	})
	e1, e2 := &obs{v: 1}, &obs{v: 2}
	if err := h(e1, act); err != nil || fired != 1 {
		t.Fatalf("first epoch-1 event: err=%v fired=%d", err, fired)
	}
	if err := h(e1, act); !errors.Is(err, ErrSkipped) {
		t.Fatal("second epoch-1 event fired")
	}
	// A skipped inner does not consume the epoch.
	skipNext = true
	if err := h(e2, act); !errors.Is(err, ErrSkipped) {
		t.Fatalf("skip not propagated: %v", err)
	}
	skipNext = false
	if err := h(e2, act); err != nil || fired != 2 {
		t.Fatalf("epoch-2 retry: err=%v fired=%d", err, fired)
	}
}

// TestScopeRegistrationConcurrentWithDispatch is the race-detector test
// of the subscription list: subscriptions register and unregister from a
// background goroutine while the dispatch loop matches and delivers
// events.
func TestScopeRegistrationConcurrentWithDispatch(t *testing.T) {
	var handled atomic.Int64
	r := NewRoutine("churn", func(sc *SetupContext) error {
		return sc.Subscribe(OnUserEvent(NewUserEventScope("stable"), func(*UserEventContext, *Actions) error {
			handled.Add(1)
			return nil
		}))
	})
	_, svc, _ := newRoutineHarness(t, r)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc := &SetupContext{svc: svc, routine: "churn"}
		for i := 0; i < rounds; i++ {
			key := fmt.Sprintf("churn-%d", i%8)
			sub := OnUserEvent(NewUserEventScope(key), func(*UserEventContext, *Actions) error { return nil })
			if err := sc.Subscribe(sub); err == nil {
				svc.UnregisterEventScope(key)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			svc.RaiseUserEvent("e", nil)
		}
	}()
	wg.Wait()
	waitFor(t, "all events drained", func() bool { return handled.Load() == rounds })
}

// blockingService starts a service whose "block" subscription parks its
// handler on the event named "first" until release is closed, and whose
// "after" subscription counts events named "after". Once "after" is
// handled, every event raised before it has been delivered.
func blockingService(t *testing.T, got func(name string)) (svc *Service, entered, release chan struct{}, after *atomic.Int64) {
	t.Helper()
	entered, release, after = make(chan struct{}), make(chan struct{}), new(atomic.Int64)
	r := NewRoutine("blocker", func(sc *SetupContext) error {
		return sc.Subscribe(
			OnUserEvent(NewUserEventScope("block").AddNameFilter("first", "second"), func(ctx *UserEventContext, _ *Actions) error {
				got(ctx.Name)
				if ctx.Name == "first" {
					close(entered)
					<-release
				}
				return nil
			}),
			OnUserEvent(NewUserEventScope("after").AddNameFilter("after"), func(*UserEventContext, *Actions) error {
				after.Add(1)
				return nil
			}))
	})
	_, svc, _ = newRoutineHarness(t, r)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	return svc, entered, release, after
}

// TestUnregisterSkipsQueuedEvents: an event matched and queued for a
// subscription is not delivered once the subscription is unregistered.
func TestUnregisterSkipsQueuedEvents(t *testing.T) {
	var mu sync.Mutex
	var got []string
	svc, entered, release, after := blockingService(t, func(name string) {
		mu.Lock()
		got = append(got, name)
		mu.Unlock()
	})
	svc.RaiseUserEvent("first", nil)
	<-entered
	svc.RaiseUserEvent("second", nil) // matched "block", queued behind "first"
	svc.UnregisterEventScope("block")
	close(release)
	svc.RaiseUserEvent("after", nil)
	waitFor(t, "queue drained", func() bool { return after.Load() == 1 })
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(got, []string{"first"}) {
		t.Fatalf("unregistered subscription handled %v", got)
	}
}

// TestUnsubscribedKeyReusedSkipsQueuedEvents: a subscription registered
// under a reused key after an event was matched does not receive that
// event — matching decides the recipients, not the key at delivery.
func TestUnsubscribedKeyReusedSkipsQueuedEvents(t *testing.T) {
	svc, entered, release, after := blockingService(t, func(string) {})
	svc.RaiseUserEvent("first", nil)
	<-entered
	svc.RaiseUserEvent("second", nil) // matched "block", queued behind "first"
	svc.UnregisterEventScope("block")
	var late atomic.Int64
	sc := &SetupContext{svc: svc, routine: "late"}
	if err := sc.Subscribe(OnUserEvent(NewUserEventScope("block").AddNameFilter("second"), func(*UserEventContext, *Actions) error {
		late.Add(1)
		return nil
	})); err != nil {
		t.Fatalf("re-subscribe after unregister: %v", err)
	}
	close(release)
	svc.RaiseUserEvent("after", nil)
	waitFor(t, "queue drained", func() bool { return after.Load() == 1 })
	if n := late.Load(); n != 0 {
		t.Fatalf("subscription registered after the match handled %d queued events", n)
	}
}
