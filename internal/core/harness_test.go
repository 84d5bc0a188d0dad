package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/compiler"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
	"streamorca/internal/wait"
)

var (
	testEpoch = time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)
	intS      = tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})
)

// recorder captures every delivered event in order through recording
// routine subscriptions — the routine-mode successor of the legacy
// Orchestrator-based test recorder. Scopes registered with observe get a
// typed recording handler each; consecutive handler invocations for the
// same delivered event (one event matching several observed scopes)
// coalesce into a single recordedEvent carrying every matched key, which
// preserves the "delivered once, with all matching keys" view the
// assertions take.
type recorder struct {
	mu      sync.Mutex
	started int
	events  []recordedEvent
	// onEvent runs on every recording-handler invocation, inside
	// delivery; scopes carries the single key that invocation served.
	onEvent func(svc *Service, kind EventKind, ctx any, scopes []string)
}

type recordedEvent struct {
	kind   EventKind
	ctx    any
	scopes []string
}

// routine returns the Routine backing the recorder: its Setup subscribes
// the start handler; event scopes join via observe.
func (r *recorder) routine() Routine {
	return NewRoutine("recorder", func(sc *SetupContext) error {
		return sc.Subscribe(OnStart(func(ctx *OrcaStartContext, act *Actions) error {
			r.mu.Lock()
			r.started++
			r.events = append(r.events, recordedEvent{kind: KindOrcaStart, ctx: ctx})
			r.mu.Unlock()
			return nil
		}))
	})
}

// record appends one handler invocation, merging it into the previous
// record when it reports the same delivered event under another key.
func (r *recorder) record(svc *Service, kind EventKind, ctx any, key string) {
	r.mu.Lock()
	if n := len(r.events); n > 0 && r.events[n-1].ctx == ctx {
		r.events[n-1].scopes = append(r.events[n-1].scopes, key)
	} else {
		r.events = append(r.events, recordedEvent{kind: kind, ctx: ctx, scopes: []string{key}})
	}
	cb := r.onEvent
	r.mu.Unlock()
	if cb != nil {
		cb(svc, kind, ctx, []string{key})
	}
}

// observe subscribes a recording handler for each scope — before Start
// or at any later point (subscriptions registered mid-run receive every
// subsequent matching event, like any routine subscription).
func (r *recorder) observe(svc *Service, scopes ...Scope) error {
	sc := &SetupContext{svc: svc, routine: "recorder"}
	for _, scope := range scopes {
		sub, err := r.subscription(scope)
		if err != nil {
			return err
		}
		if err := sc.Subscribe(sub); err != nil {
			return err
		}
	}
	return nil
}

// subscription pairs one scope with its typed recording handler.
func (r *recorder) subscription(scope Scope) (*Subscription, error) {
	switch sc := scope.(type) {
	case *OperatorMetricScope:
		return OnOperatorMetric(sc, func(ctx *OperatorMetricContext, act *Actions) error {
			r.record(act.Service, KindOperatorMetric, ctx, sc.Key())
			return nil
		}), nil
	case *PEMetricScope:
		return OnPEMetric(sc, func(ctx *PEMetricContext, act *Actions) error {
			r.record(act.Service, KindPEMetric, ctx, sc.Key())
			return nil
		}), nil
	case *PortMetricScope:
		return OnPortMetric(sc, func(ctx *PortMetricContext, act *Actions) error {
			r.record(act.Service, KindPortMetric, ctx, sc.Key())
			return nil
		}), nil
	case *PEFailureScope:
		return OnPEFailure(sc, func(ctx *PEFailureContext, act *Actions) error {
			r.record(act.Service, KindPEFailure, ctx, sc.Key())
			return nil
		}), nil
	case *HostFailureScope:
		return OnHostFailure(sc, func(ctx *HostFailureContext, act *Actions) error {
			r.record(act.Service, KindHostFailure, ctx, sc.Key())
			return nil
		}), nil
	case *JobEventScope:
		return OnJobEvent(sc, func(ctx *JobContext, act *Actions) error {
			kind := KindJobSubmitted
			if ctx.Cancelled {
				kind = KindJobCancelled
			}
			r.record(act.Service, kind, ctx, sc.Key())
			return nil
		}), nil
	case *TimerScope:
		return OnTimer(sc, func(ctx *TimerContext, act *Actions) error {
			r.record(act.Service, KindTimer, ctx, sc.Key())
			return nil
		}), nil
	case *UserEventScope:
		return OnUserEvent(sc, func(ctx *UserEventContext, act *Actions) error {
			r.record(act.Service, KindUserEvent, ctx, sc.Key())
			return nil
		}), nil
	default:
		return nil, fmt.Errorf("recorder: unsupported scope type %T", scope)
	}
}

// snapshot returns a copy of the recorded events.
func (r *recorder) snapshot() []recordedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]recordedEvent, len(r.events))
	copy(out, r.events)
	return out
}

// countKind returns how many events of a kind were recorded.
func (r *recorder) countKind(k EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.kind == k {
			n++
		}
	}
	return n
}

// harness bundles a platform, a manual clock, a routine-mode service,
// and a recorder.
type harness struct {
	inst  *platform.Instance
	clock *vclock.Manual
	svc   *Service
	rec   *recorder
}

// coll returns the named collection of the harness's instance.
func (h *harness) coll(id string) *ops.Collection {
	return ops.Collector(h.inst.SAM.Objects(), id)
}

// rig boots a platform on a manual clock at testEpoch and wires a
// routine-mode service to it that pulls metrics only when a test says
// so: the given routines, or else the harness's recorder.
func rig(t *testing.T, opts platform.Options, routines ...Routine) *harness {
	t.Helper()
	clock := vclock.NewManual(testEpoch)
	opts.Clock = clock
	inst := platformtest.Boot(t, opts)
	rec := &recorder{}
	if len(routines) == 0 {
		routines = []Routine{rec.routine()}
	}
	svc, err := NewRoutineService(Config{
		Name:         "testOrca",
		SAM:          inst.SAM,
		SRM:          inst.SRM,
		Clock:        clock,
		PullInterval: time.Hour,
	}, routines...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return &harness{inst: inst, clock: clock, svc: svc, rec: rec}
}

// observe registers recording subscriptions for the given scopes.
func (h *harness) observe(t *testing.T, scopes ...Scope) {
	t.Helper()
	if err := h.rec.observe(h.svc, scopes...); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) start(t *testing.T) {
	t.Helper()
	if err := h.svc.Start(); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "start event", func() bool {
		h.rec.mu.Lock()
		defer h.rec.mu.Unlock()
		return h.rec.started == 1
	})
}

// quiet waits until coll's length has not changed for d and returns it;
// ok is false when that takes longer than wait.Deadline. A routine's
// handler uses it to let a dead PE's in-flight output drain: it runs on
// the dispatcher, so it reports rather than fails.
func quiet(coll *ops.Collection, d time.Duration) (n int, ok bool) {
	n, since := coll.Len(), time.Now()
	ok = wait.Until(wait.Deadline, time.Millisecond, func() bool {
		if m := coll.Len(); m != n {
			n, since = m, time.Now()
		}
		return time.Since(since) >= d
	})
	return n, ok
}

// settle raises a user event and waits until the recorder has it.
// Events are delivered one at a time in order, so by then every event
// queued before it has been delivered (an unscoped one is dropped when
// raised). The harness must observe a user-event scope.
func (h *harness) settle(t *testing.T) {
	t.Helper()
	n := h.rec.countKind(KindUserEvent)
	h.svc.RaiseUserEvent("settle", nil)
	wait.For(t, "the settle event", func() bool { return h.rec.countKind(KindUserEvent) > n })
}

// figure2App builds the paper's Figure 2 application with real operators:
// two beacons feeding two split-and-merge composite1 instances, each
// ending in a collect sink, partitioned into 3 PEs as in Figure 3.
func figure2App(t *testing.T, name string) *adl.Application {
	t.Helper()
	b := compiler.NewApp(name)
	op1 := b.AddOperator("op1", ops.KindBeacon).Out(intS).Param("count", "10").Colocate("srcs")
	op2 := b.AddOperator("op2", ops.KindBeacon).Out(intS).Param("count", "10").Colocate("srcs")
	mkComp := func(inst string) (*compiler.OpHandle, *compiler.OpHandle) {
		var op3, op6 *compiler.OpHandle
		b.Composite("composite1", inst, func() {
			op3 = b.AddOperator("op3", ops.KindSplit).In(intS).Out(intS, intS).Colocate("srcs")
			op4 := b.AddOperator("op4", ops.KindFunctor).In(intS).Out(intS).Colocate("mid")
			op5 := b.AddOperator("op5", ops.KindFunctor).In(intS).Out(intS).Colocate("mid")
			op6 = b.AddOperator("op6", ops.KindMerge).In(intS, intS).Out(intS).Colocate("mid")
			b.Connect(op3, 0, op4, 0)
			b.Connect(op3, 1, op5, 0)
			b.Connect(op4, 0, op6, 0)
			b.Connect(op5, 0, op6, 1)
		})
		return op3, op6
	}
	in1, out1 := mkComp("c1")
	in2, out2 := mkComp("c2")
	sink1 := b.AddOperator("op7", ops.KindCollectSink).In(intS).
		Param("collectorId", name+"-sink1").Colocate("sinks")
	sink2 := b.AddOperator("op8", ops.KindCollectSink).In(intS).
		Param("collectorId", name+"-sink2").Colocate("sinks")
	b.Connect(op1, 0, in1, 0)
	b.Connect(op2, 0, in2, 0)
	b.Connect(out1, 0, sink1, 0)
	b.Connect(out2, 0, sink2, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseByTag})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// simpleApp builds Beacon -> CollectSink in two PEs.
func simpleApp(t *testing.T, name, collector, count string) *adl.Application {
	t.Helper()
	b := compiler.NewApp(name)
	src := b.AddOperator("src", ops.KindBeacon).Out(intS).Param("count", count)
	sink := b.AddOperator("sink", ops.KindCollectSink).In(intS).Param("collectorId", collector)
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	return app
}
