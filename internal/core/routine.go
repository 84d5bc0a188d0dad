package core

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// This file implements the composable Routine API — the successor of the
// wide Orchestrator interface. A routine pairs each event scope with its
// handler in one typed expression (OnPEFailure, OnOperatorMetric, ...),
// declares everything in a Setup that returns errors instead of
// panicking, and actuates through the Actions surface its handlers
// receive. Independent routines compose into one service with Compose.

// Routine is the unit of adaptation logic in the composable API: the Go
// analogue of one of the paper's user-written adaptation routines. A
// routine declares its event subscriptions — and performs its initial
// actuations, such as submitting the applications it manages — in Setup.
//
// Service.Start runs every routine's Setup before event delivery begins;
// a Setup error aborts the start and propagates out of Start, so
// misconfiguration (duplicate scope keys, unknown applications, rejected
// submissions) surfaces to the caller instead of panicking inside an
// event handler.
type Routine interface {
	// Name identifies the routine in diagnostics and setup errors.
	Name() string
	// Setup declares subscriptions (sc.Subscribe) and performs initial
	// actuations (sc.Actions()). It runs exactly once, inside
	// Service.Start, before any event is delivered.
	Setup(sc *SetupContext) error
}

// Closer is an optional Routine extension: a routine implementing it
// has Close invoked during Service.Stop, before event delivery shuts
// down, so the actuation surface still works — the place to cancel
// managed jobs, reset stores, or release external resources the
// routine's Setup acquired. Hooks run in reverse setup order; a routine
// needing teardown for closure-local state can register a function with
// SetupContext.OnStop instead.
type Closer interface {
	Close(act *Actions)
}

// routineFunc adapts a bare setup function into a Routine.
type routineFunc struct {
	name  string
	setup func(*SetupContext) error
}

func (r *routineFunc) Name() string                 { return r.name }
func (r *routineFunc) Setup(sc *SetupContext) error { return r.setup(sc) }

// NewRoutine builds a Routine from a name and a setup function — enough
// for stateless policies whose handlers close over local state.
func NewRoutine(name string, setup func(*SetupContext) error) Routine {
	return &routineFunc{name: name, setup: setup}
}

// composite runs several routines as one.
type composite struct {
	name     string
	routines []Routine
}

func (c *composite) Name() string { return c.name }

func (c *composite) Setup(sc *SetupContext) error {
	for _, r := range c.routines {
		child := &SetupContext{svc: sc.svc, routine: r.Name()}
		if err := r.Setup(child); err != nil {
			return fmt.Errorf("routine %q: %w", r.Name(), err)
		}
	}
	return nil
}

// Close implements Closer by delegating to every child that implements
// it, in reverse order — so composing routines keeps their teardown.
func (c *composite) Close(act *Actions) {
	for i := len(c.routines) - 1; i >= 0; i-- {
		if cl, ok := c.routines[i].(Closer); ok {
			cl.Close(act)
		}
	}
}

// Compose bundles several independent routines into one, so a single
// service can run multiple adaptation concerns (e.g. a failover routine
// and a model-recompute routine side by side). Setups run in argument
// order; the first error aborts the remaining ones and propagates. A nil
// routine yields a composite whose Setup reports it, so the mistake
// surfaces as a Start error rather than a panic.
func Compose(routines ...Routine) Routine {
	names := make([]string, len(routines))
	for i, r := range routines {
		if r == nil {
			return NewRoutine("composite", func(*SetupContext) error {
				return fmt.Errorf("core: composed routine %d is nil", i)
			})
		}
		names[i] = r.Name()
	}
	return &composite{name: strings.Join(names, "+"), routines: routines}
}

// SetupContext is handed to Routine.Setup: it registers the routine's
// subscriptions and exposes the actuation surface for initial actions.
type SetupContext struct {
	svc     *Service
	routine string
}

// Routine returns the name of the routine being set up.
func (sc *SetupContext) Routine() string { return sc.routine }

// Actions returns the actuation and inspection surface — the same one
// the routine's handlers receive. Note that StartApp blocks until the
// target configuration is submitted (§4.4); dependency uptime
// requirements are waited out on the service clock.
func (sc *SetupContext) Actions() *Actions { return sc.svc.Actions() }

// OnStop registers a teardown hook for this routine, run exactly once
// inside Service.Stop — in reverse registration order, before event
// delivery shuts down, with the actuation surface still live. It is the
// function-style counterpart of implementing Closer. Hooks do not run
// when Start itself fails: a routine whose Setup errored never finished
// acquiring what the hook would release. A nil fn is ignored.
func (sc *SetupContext) OnStop(fn func(act *Actions)) {
	if fn == nil {
		return
	}
	sc.svc.mu.Lock()
	sc.svc.stopHooks = append(sc.svc.stopHooks, fn)
	sc.svc.mu.Unlock()
}

// Subscribe registers subscriptions built with the On* constructors; each
// joins the service's event scope (§4.1). Scope keys must be non-empty
// and unique across the whole service; a duplicate key — within this
// routine or from another routine — is an error, as is a nil scope.
func (sc *SetupContext) Subscribe(subs ...*Subscription) error {
	for _, sub := range subs {
		if sub == nil {
			return fmt.Errorf("core: routine %q: nil subscription", sc.routine)
		}
		if sub.start {
			sc.svc.mu.Lock()
			sub.routine = sc.routine
			sc.svc.startSubs = append(sc.svc.startSubs, sub)
			sc.svc.mu.Unlock()
			continue
		}
		if sub.scope == nil {
			return fmt.Errorf("core: routine %q: subscription with nil scope", sc.routine)
		}
		key := sub.scope.Key()
		if key == "" {
			return fmt.Errorf("core: routine %q: subscope with empty key", sc.routine)
		}
		sc.svc.mu.Lock()
		dup := sc.svc.subIndex(key) >= 0
		if !dup {
			sub.routine = sc.routine
			sub.retired.Store(false) // a subscription unregistered earlier is live again
			sc.svc.subs = append(sc.svc.subs, sub)
		}
		sc.svc.mu.Unlock()
		if dup {
			return fmt.Errorf("core: routine %q: subscope key %q already registered", sc.routine, key)
		}
	}
	return nil
}

// Actions is the actuation and inspection surface routine handlers
// receive. It embeds the Service, so every actuation (SubmitApplication,
// RestartPE, CheckpointPE, StartApp, ...), inspection (Graph,
// PEOfOperator, ...), and timer API is available directly; the embedded
// Service field is the escape hatch for anything not yet mirrored here.
type Actions struct {
	*Service
}

// Actions returns the service's actuation surface — the same value the
// routine handlers receive. Useful for driving handlers directly in
// tests and for actuating from outside an event handler.
func (s *Service) Actions() *Actions {
	return s.actions
}

// Handler is a typed event handler: it receives the event context and
// the actuation surface, and returns an error when the reaction failed.
// Returning ErrSkipped reports "condition not met, nothing done" — guards
// treat a skipped invocation as not having fired, and the service does
// not count it as a handler error.
type Handler[C any] func(ctx *C, act *Actions) error

// Subscription pairs one event scope with its typed handler. Build them
// with the On* constructors and register them via SetupContext.Subscribe.
type Subscription struct {
	scope   Scope
	start   bool // OrcaStart subscription: always in scope, no Scope value
	routine string
	invoke  func(s *Service, ctx any) error
	retired atomic.Bool // unregistered: queued events skip it
}

// newSub wraps a typed handler into a Subscription's untyped invoke.
func newSub[C any](scope Scope, h Handler[C]) *Subscription {
	return &Subscription{scope: scope, invoke: func(s *Service, ctx any) error {
		return h(ctx.(*C), s.Actions())
	}}
}

// OnStart subscribes to the service start notification — the only event
// that is always in scope (§4.1), so it takes no Scope argument. Most
// routines do their start-time work directly in Setup; OnStart is for
// logic that must observe the delivery-ordered start event itself.
func OnStart(h Handler[OrcaStartContext]) *Subscription {
	sub := newSub(nil, h)
	sub.start = true
	return sub
}

// OnOperatorMetric subscribes to operator-scoped metric events.
func OnOperatorMetric(scope *OperatorMetricScope, h Handler[OperatorMetricContext]) *Subscription {
	return newSub(scope, h)
}

// OnPEMetric subscribes to PE-scoped metric events.
func OnPEMetric(scope *PEMetricScope, h Handler[PEMetricContext]) *Subscription {
	return newSub(scope, h)
}

// OnPortMetric subscribes to operator-port metric events.
func OnPortMetric(scope *PortMetricScope, h Handler[PortMetricContext]) *Subscription {
	return newSub(scope, h)
}

// OnPEFailure subscribes to PE crash events.
func OnPEFailure(scope *PEFailureScope, h Handler[PEFailureContext]) *Subscription {
	return newSub(scope, h)
}

// OnHostFailure subscribes to host failure events.
func OnHostFailure(scope *HostFailureScope, h Handler[HostFailureContext]) *Subscription {
	return newSub(scope, h)
}

// OnJobEvent subscribes to job submission/cancellation events; narrow
// the scope with SubmissionsOnly or CancellationsOnly to tell them
// apart, or register one subscription per direction.
func OnJobEvent(scope *JobEventScope, h Handler[JobContext]) *Subscription {
	return newSub(scope, h)
}

// OnTimer subscribes to timer-expiration events.
func OnTimer(scope *TimerScope, h Handler[TimerContext]) *Subscription {
	return newSub(scope, h)
}

// OnUserEvent subscribes to user-raised events.
func OnUserEvent(scope *UserEventScope, h Handler[UserEventContext]) *Subscription {
	return newSub(scope, h)
}
