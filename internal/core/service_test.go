package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/graph"
	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/sam"
	"streamorca/internal/wait"
)

func TestNewServiceValidation(t *testing.T) {
	h := rig(t, platform.Options{})
	noop := NewRoutine("noop", func(*SetupContext) error { return nil })
	if _, err := NewRoutineService(Config{SAM: h.inst.SAM, SRM: h.inst.SRM}, noop); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewRoutineService(Config{Name: "x"}, noop); err == nil {
		t.Fatal("missing daemons accepted")
	}
	if _, err := NewRoutineService(Config{Name: "x", SAM: h.inst.SAM, SRM: h.inst.SRM}); err == nil {
		t.Fatal("no routines accepted")
	}
	if _, err := NewRoutineService(Config{Name: "x", SAM: h.inst.SAM, SRM: h.inst.SRM}, nil); err == nil {
		t.Fatal("nil routine accepted")
	}
	if _, err := NewRoutineService(Config{Name: "x", SAM: h.inst.SAM, SRM: h.inst.SRM},
		NewRoutine("", func(*SetupContext) error { return nil })); err == nil {
		t.Fatal("unnamed routine accepted")
	}
}

func TestStartDeliversOrcaStartFirstAndOnce(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	evs := h.rec.snapshot()
	if len(evs) == 0 || evs[0].kind != KindOrcaStart {
		t.Fatalf("first event = %+v", evs)
	}
	if err := h.svc.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	ctx := evs[0].ctx.(*OrcaStartContext)
	if ctx.Name != "testOrca" {
		t.Fatalf("start context = %+v", ctx)
	}
}

func TestRegisterApplication(t *testing.T) {
	h := rig(t, platform.Options{})
	app := simpleApp(t, "A", "ra", "1")
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	if err := h.svc.RegisterApplication(app); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	bad := simpleApp(t, "B", "rb", "1")
	bad.PEs = nil
	if err := h.svc.RegisterApplication(bad); err == nil {
		t.Fatal("invalid ADL registered")
	}
	// Registered ADL is cloned: mutating the original must not affect it.
	app.Name = "mutated"
	if _, ok := h.svc.RegisteredApplication("A"); !ok {
		t.Fatal("registered app lost after caller mutation")
	}
}

func TestSubmitApplicationBuildsGraphAndManages(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	if err := h.svc.RegisterApplication(simpleApp(t, "Sub", "sub1", "5")); err != nil {
		t.Fatal(err)
	}
	job, err := h.svc.SubmitApplication("Sub", nil)
	if err != nil {
		t.Fatal(err)
	}
	wait.For(t, "tuples", func() bool { return h.coll("sub1").Len() == 5 })
	g, ok := h.svc.Graph(job)
	if !ok {
		t.Fatal("no graph for managed job")
	}
	if g.App() != "Sub" || len(g.OperatorNames()) != 2 || len(g.PEIDs()) != 2 {
		t.Fatalf("graph: app=%s ops=%v pes=%v", g.App(), g.OperatorNames(), g.PEIDs())
	}
	pe, ok := g.PEOfOperator("sink")
	if !ok {
		t.Fatal("sink has no PE")
	}
	if host, ok := h.svc.HostOfPE(pe); !ok || host != "h1" {
		t.Fatalf("HostOfPE = %q, %v", host, ok)
	}
	managed := h.svc.ManagedJobs()
	if len(managed) != 1 || managed[0].Job != job || managed[0].App != "Sub" {
		t.Fatalf("ManagedJobs = %+v", managed)
	}
	if jobs := h.svc.JobsOfApp("Sub"); len(jobs) != 1 || jobs[0] != job {
		t.Fatalf("JobsOfApp = %v", jobs)
	}
	if _, err := h.svc.SubmitApplication("Ghost", nil); err == nil {
		t.Fatal("unregistered app submitted")
	}
}

func TestJobEventsRequireScope(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	if err := h.svc.RegisterApplication(simpleApp(t, "JE", "je", "1")); err != nil {
		t.Fatal(err)
	}
	// No scope: submission event dropped.
	job, err := h.svc.SubmitApplication("JE", nil)
	if err != nil {
		t.Fatal(err)
	}
	wait.For(t, "drop counted", func() bool { return h.svc.Stats().DroppedEvents >= 1 })
	if h.rec.countKind(KindJobSubmitted) != 0 {
		t.Fatal("unscoped job event delivered")
	}
	// With a scope, both cancel of this job and future submissions flow;
	// the shared JobContext tells the directions apart via Cancelled.
	h.observe(t, NewJobEventScope("jobs").AddApplicationFilter("JE"))
	if err := h.svc.CancelJob(job); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "cancel event", func() bool { return h.rec.countKind(KindJobCancelled) == 1 })
	evs := h.rec.snapshot()
	last := evs[len(evs)-1]
	jc := last.ctx.(*JobContext)
	if jc.Job != job || jc.App != "JE" || jc.ConfigID != "" || !jc.Cancelled {
		t.Fatalf("cancel context = %+v", jc)
	}
	if len(last.scopes) != 1 || last.scopes[0] != "jobs" {
		t.Fatalf("scopes = %v", last.scopes)
	}
}

func TestActingOnUnmanagedJobFails(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	// Submit directly through SAM: the orchestrator did not start it.
	app := simpleApp(t, "Um", "um", "0")
	job, err := h.inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.svc.CancelJob(job); !errors.Is(err, ErrUnmanagedJob) {
		t.Fatalf("CancelJob err = %v", err)
	}
	info, _ := h.inst.SAM.Job(job)
	pe := info.PEs[0].ID
	if err := h.svc.RestartPE(pe); !errors.Is(err, ErrUnmanagedJob) {
		t.Fatalf("RestartPE err = %v", err)
	}
	if err := h.svc.StopPE(pe); !errors.Is(err, ErrUnmanagedJob) {
		t.Fatalf("StopPE err = %v", err)
	}
	if err := h.svc.KillPE(pe, "x"); !errors.Is(err, ErrUnmanagedJob) {
		t.Fatalf("KillPE err = %v", err)
	}
	if err := h.svc.ControlOperator(job, "src", "x", nil); !errors.Is(err, ErrUnmanagedJob) {
		t.Fatalf("ControlOperator err = %v", err)
	}
}

// TestFigure5ScopeMatching reproduces the paper's Figure 5/6 example: an
// operator metric subscope selecting queueSize events from Split/Merge
// operators inside composite1 instances, plus a PE failure subscope with
// an application filter.
func TestFigure5ScopeMatching(t *testing.T) {
	h := rig(t, platform.Options{})
	app := figure2App(t, "Figure2")
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	h.observe(t,
		NewOperatorMetricScope("opMetricScope").
			AddCompositeTypeFilter("composite1").
			AddOperatorTypeFilter(ops.KindSplit, ops.KindMerge).
			AddOperatorMetric(metrics.OpQueueSize),
		NewPEFailureScope("failureScope").AddApplicationFilter("Figure2"))
	h.start(t)
	if _, err := h.svc.SubmitApplication("Figure2", nil); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "pipeline output", func() bool {
		return h.coll("Figure2-sink1").Finals() == 1 && h.coll("Figure2-sink2").Finals() == 1
	})
	h.inst.FlushMetrics()
	h.svc.PullMetricsNow()
	wait.For(t, "metric events", func() bool { return h.rec.countKind(KindOperatorMetric) >= 4 })
	got := map[string]bool{}
	var epoch uint64
	for _, e := range h.rec.snapshot() {
		if e.kind != KindOperatorMetric {
			continue
		}
		ctx := e.ctx.(*OperatorMetricContext)
		// Only queueSize from Split/Merge inside composite1 instances.
		if ctx.Metric != metrics.OpQueueSize {
			t.Fatalf("unexpected metric %q delivered", ctx.Metric)
		}
		if ctx.OperatorKind != ops.KindSplit && ctx.OperatorKind != ops.KindMerge {
			t.Fatalf("unexpected operator kind %q", ctx.OperatorKind)
		}
		if len(e.scopes) != 1 || e.scopes[0] != "opMetricScope" {
			t.Fatalf("scopes = %v", e.scopes)
		}
		if epoch == 0 {
			epoch = ctx.Epoch
		} else if ctx.Epoch != epoch {
			t.Fatalf("epochs differ within one pull: %d vs %d", ctx.Epoch, epoch)
		}
		got[ctx.InstanceName] = true
	}
	for _, want := range []string{"c1.op3", "c1.op6", "c2.op3", "c2.op6"} {
		if !got[want] {
			t.Fatalf("missing metric event for %s (got %v)", want, got)
		}
	}
	// A second pull increments the epoch.
	h.svc.PullMetricsNow()
	wait.For(t, "second round", func() bool {
		for _, e := range h.rec.snapshot() {
			if e.kind == KindOperatorMetric && e.ctx.(*OperatorMetricContext).Epoch == epoch+1 {
				return true
			}
		}
		return false
	})
}

func TestEventDeliveredOnceWithAllMatchingScopeKeys(t *testing.T) {
	h := rig(t, platform.Options{})
	if err := h.svc.RegisterApplication(simpleApp(t, "Multi", "multi", "3")); err != nil {
		t.Fatal(err)
	}
	h.observe(t,
		NewOperatorMetricScope("byName").
			AddOperatorNameFilter("src").AddOperatorMetric(metrics.OpTuplesSubmitted),
		NewOperatorMetricScope("byKind").
			AddOperatorTypeFilter(ops.KindBeacon).AddOperatorMetric(metrics.OpTuplesSubmitted))
	h.start(t)
	if _, err := h.svc.SubmitApplication("Multi", nil); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "done", func() bool { return h.coll("multi").Finals() == 1 })
	h.inst.FlushMetrics()
	h.svc.PullMetricsNow()
	wait.For(t, "metric event", func() bool { return h.rec.countKind(KindOperatorMetric) >= 1 })
	n := 0
	for _, e := range h.rec.snapshot() {
		if e.kind != KindOperatorMetric {
			continue
		}
		n++
		if len(e.scopes) != 2 || e.scopes[0] != "byName" || e.scopes[1] != "byKind" {
			t.Fatalf("scopes = %v", e.scopes)
		}
	}
	if n != 1 {
		t.Fatalf("event delivered %d times", n)
	}
}

// TestScopeRegistrationErrors: Subscribe rejects an empty and a duplicate
// scope key, and a key can be subscribed again once unregistered.
func TestScopeRegistrationErrors(t *testing.T) {
	h := rig(t, platform.Options{})
	if err := h.rec.observe(h.svc, NewOperatorMetricScope("")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := h.rec.observe(h.svc, NewOperatorMetricScope("k")); err != nil {
		t.Fatal(err)
	}
	if err := h.rec.observe(h.svc, NewPEFailureScope("k")); err == nil {
		t.Fatal("duplicate key accepted")
	}
	h.svc.UnregisterEventScope("k")
	if err := h.rec.observe(h.svc, NewPEFailureScope("k")); err != nil {
		t.Fatalf("re-subscribe after unregister: %v", err)
	}
	h.svc.UnregisterEventScope("never-registered") // no-op
}

func TestPEFailureEventAndEpochGrouping(t *testing.T) {
	h := rig(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2")})
	if err := h.svc.RegisterApplication(simpleApp(t, "F", "f1", "0")); err != nil {
		t.Fatal(err)
	}
	h.observe(t,
		NewPEFailureScope("pf").AddApplicationFilter("F"),
		NewHostFailureScope("hf"))
	h.start(t)
	job, err := h.svc.SubmitApplication("F", nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := h.svc.Graph(job)
	sinkPE, _ := g.PEOfOperator("sink")

	// Single PE kill: one event, its own epoch.
	if err := h.svc.KillPE(sinkPE, "injected"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "pe failure event", func() bool { return h.rec.countKind(KindPEFailure) == 1 })
	var first *PEFailureContext
	for _, e := range h.rec.snapshot() {
		if e.kind == KindPEFailure {
			first = e.ctx.(*PEFailureContext)
		}
	}
	if first.PE != sinkPE || first.Job != job || first.App != "F" || first.Reason != "injected" {
		t.Fatalf("failure ctx = %+v", first)
	}
	if len(first.Operators) != 1 || first.Operators[0] != "sink" {
		t.Fatalf("failure operators = %v", first.Operators)
	}
	if g2, _ := h.svc.Graph(job); g2 != nil {
		if info, _ := g2.PE(sinkPE); info.State != "crashed" {
			t.Fatalf("graph PE state = %q", info.State)
		}
	}

	// Host failure kills both PEs of a second job placed on one host:
	// both PE failure events and the host failure event share an epoch.
	app2 := simpleApp(t, "F2", "f2", "0")
	app2.HostPools = []adl.HostPool{{Name: "only-h2", Hosts: []string{"h2"}}}
	for i := range app2.PEs {
		app2.PEs[i].Pool = "only-h2"
	}
	if err := h.svc.RegisterApplication(app2); err != nil {
		t.Fatal(err)
	}
	h.observe(t, NewPEFailureScope("pf2").AddApplicationFilter("F2"))
	if _, err := h.svc.SubmitApplication("F2", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.inst.Cluster.KillHost("h2"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "host failure fan-out", func() bool {
		return h.rec.countKind(KindPEFailure) == 3 && h.rec.countKind(KindHostFailure) == 1
	})
	var hostEpoch uint64
	for _, e := range h.rec.snapshot() {
		if e.kind == KindHostFailure {
			hostEpoch = e.ctx.(*HostFailureContext).Epoch
		}
	}
	shared := 0
	for _, e := range h.rec.snapshot() {
		if e.kind != KindPEFailure {
			continue
		}
		ctx := e.ctx.(*PEFailureContext)
		if ctx.App == "F2" {
			if ctx.Epoch != hostEpoch {
				t.Fatalf("PE failure epoch %d != host epoch %d", ctx.Epoch, hostEpoch)
			}
			if ctx.Host != "h2" {
				t.Fatalf("failure host = %q", ctx.Host)
			}
			shared++
		} else if ctx.Epoch == hostEpoch {
			t.Fatal("unrelated failure shares the host epoch")
		}
	}
	if shared != 2 {
		t.Fatalf("host failure produced %d PE events for F2", shared)
	}
}

func TestTimers(t *testing.T) {
	h := rig(t, platform.Options{})
	h.observe(t, NewTimerScope("timers").AddTimerFilter("once", "tick"), NewUserEventScope("settle"))
	h.start(t)
	if err := h.svc.StartTimer("", time.Second); err == nil {
		t.Fatal("empty timer name accepted")
	}
	if err := h.svc.StartTimer("once", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(10 * time.Second)
	wait.For(t, "one-shot timer", func() bool { return h.rec.countKind(KindTimer) == 1 })

	if err := h.svc.StartPeriodicTimer("tick", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(5 * time.Second)
	wait.For(t, "tick 1", func() bool { return h.rec.countKind(KindTimer) == 2 })
	h.clock.Advance(5 * time.Second)
	wait.For(t, "tick 2", func() bool { return h.rec.countKind(KindTimer) == 3 })
	h.svc.CancelTimer("tick")
	h.clock.Advance(20 * time.Second) // fires due timers on this goroutine
	h.settle(t)
	if h.rec.countKind(KindTimer) != 3 {
		t.Fatal("cancelled timer fired")
	}
	if err := h.svc.StartPeriodicTimer("bad", 0); err == nil {
		t.Fatal("non-positive period accepted")
	}
	// An unscoped timer is dropped.
	if err := h.svc.StartTimer("unscoped", time.Second); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(time.Second)
	h.settle(t)
	if h.rec.countKind(KindTimer) != 3 {
		t.Fatal("unscoped timer delivered")
	}
}

func TestUserEvents(t *testing.T) {
	h := rig(t, platform.Options{})
	h.observe(t, NewUserEventScope("user").AddNameFilter("reload"))
	h.start(t)
	h.svc.RaiseUserEvent("reload", map[string]string{"model": "v2"})
	h.svc.RaiseUserEvent("ignored", nil)
	wait.For(t, "user event", func() bool { return h.rec.countKind(KindUserEvent) == 1 })
	for _, e := range h.rec.snapshot() {
		if e.kind == KindUserEvent {
			ctx := e.ctx.(*UserEventContext)
			if ctx.Name != "reload" || ctx.Payload["model"] != "v2" {
				t.Fatalf("user ctx = %+v", ctx)
			}
		}
	}
}

func TestEventsDeliveredInOrderOneAtATime(t *testing.T) {
	h := rig(t, platform.Options{})
	seen := make(chan string, 64)
	gate := make(chan struct{})
	h.rec.onEvent = func(svc *Service, kind EventKind, ctx any, scopes []string) {
		if kind == KindUserEvent {
			seen <- ctx.(*UserEventContext).Name
			<-gate // hold the dispatcher until every event has queued behind this one
		}
	}
	h.observe(t, NewUserEventScope("all"))
	h.start(t)
	names := []string{"e1", "e2", "e3", "e4", "e5"}
	for _, n := range names {
		h.svc.RaiseUserEvent(n, nil)
	}
	close(gate)
	for _, want := range names {
		var got string
		wait.Within(t, "event "+want, func() { got = <-seen })
		if got != want {
			t.Fatalf("out of order: got %s want %s", got, want)
		}
	}
}

func TestRestartStopControlOnManagedJob(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	app := simpleApp(t, "Act", "act", "0")
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	job, err := h.svc.SubmitApplication("Act", nil)
	if err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, h.inst, "act", 3)
	g, _ := h.svc.Graph(job)
	sinkPE, _ := g.PEOfOperator("sink")
	if err := h.svc.KillPE(sinkPE, "fault"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "crashed in graph", func() bool {
		info, _ := g.PE(sinkPE)
		return info.State == "crashed"
	})
	if err := h.svc.RestartPE(sinkPE); err != nil {
		t.Fatal(err)
	}
	info, _ := g.PE(sinkPE)
	if info.State != "running" {
		t.Fatalf("PE state after restart = %q", info.State)
	}
	n := h.coll("act").Len()
	platformtest.Delivered(t, h.inst, "act", n+1)
	if err := h.svc.StopPE(sinkPE); err != nil {
		t.Fatal(err)
	}
	info, _ = g.PE(sinkPE)
	if info.State != "stopped" {
		t.Fatalf("PE state after stop = %q", info.State)
	}
}

func TestMakeExclusiveHostPools(t *testing.T) {
	h := rig(t, platform.Options{})
	if err := h.svc.MakeExclusiveHostPools("ghost"); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := h.svc.RegisterApplication(simpleApp(t, "Ex", "ex", "1")); err != nil {
		t.Fatal(err)
	}
	if err := h.svc.MakeExclusiveHostPools("Ex"); err != nil {
		t.Fatal(err)
	}
	app, _ := h.svc.RegisteredApplication("Ex")
	if len(app.HostPools) == 0 || !app.HostPools[0].Exclusive {
		t.Fatalf("pools = %+v", app.HostPools)
	}
}

func TestInspectionQueries(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	app := figure2App(t, "Insp")
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	job, err := h.svc.SubmitApplication("Insp", nil)
	if err != nil {
		t.Fatal(err)
	}
	midPE, ok := h.svc.PEOfOperator(job, "c1.op4")
	if !ok {
		t.Fatal("PEOfOperator failed")
	}
	opsIn := h.svc.OperatorsInPE(midPE)
	if len(opsIn) != 6 {
		t.Fatalf("OperatorsInPE = %d ops", len(opsIn))
	}
	comps := h.svc.CompositesInPE(midPE)
	if len(comps) != 2 || comps[0] != "c1" || comps[1] != "c2" {
		t.Fatalf("CompositesInPE = %v", comps)
	}
	encl, ok := h.svc.EnclosingComposite(job, "c2.op5")
	if !ok || encl != "c2" {
		t.Fatalf("EnclosingComposite = %q, %v", encl, ok)
	}
	if _, ok := h.svc.EnclosingComposite(999, "x"); ok {
		t.Fatal("inspection on unknown job succeeded")
	}
	if h.svc.OperatorsInPE(9999) != nil || h.svc.CompositesInPE(9999) != nil {
		t.Fatal("inspection on unknown PE returned data")
	}
	if _, ok := h.svc.HostOfPE(9999); ok {
		t.Fatal("HostOfPE on unknown PE succeeded")
	}
}

func TestHandlerPanicIsRecovered(t *testing.T) {
	h := rig(t, platform.Options{})
	h.observe(t, NewUserEventScope("all"))
	h.rec.onEvent = func(svc *Service, kind EventKind, ctx any, scopes []string) {
		if kind == KindUserEvent && ctx.(*UserEventContext).Name == "boom" {
			panic("handler bug")
		}
	}
	h.start(t)
	h.svc.RaiseUserEvent("boom", nil)
	h.svc.RaiseUserEvent("after", nil)
	wait.For(t, "delivery continues after panic", func() bool { return h.rec.countKind(KindUserEvent) == 2 })
	if h.svc.Stats().HandlerPanics != 1 {
		t.Fatalf("panics = %d", h.svc.Stats().HandlerPanics)
	}
}

func TestStatsAndPullInterval(t *testing.T) {
	h := rig(t, platform.Options{})
	h.observe(t, NewOperatorMetricScope("m").AddOperatorMetric(metrics.OpTuplesSubmitted))
	h.start(t)
	if err := h.svc.RegisterApplication(simpleApp(t, "St", "st", "4")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.svc.SubmitApplication("St", nil); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "done", func() bool { return h.coll("st").Finals() == 1 })
	h.inst.FlushMetrics()
	// The pull loop runs on the manual clock, parked on the old
	// hour-long period: the new one applies from the tick after it.
	h.svc.SetMetricPullInterval(time.Second)
	wait.For(t, "the pull the old period owes", func() bool {
		h.clock.Advance(time.Hour)
		return h.rec.countKind(KindOperatorMetric) >= 1
	})
	pulled := h.rec.countKind(KindOperatorMetric)
	wait.For(t, "a pull one new period later", func() bool {
		h.clock.Advance(time.Second)
		return h.rec.countKind(KindOperatorMetric) > pulled
	})
	st := h.svc.Stats()
	if st.ManagedJobs != 1 || st.RegisteredApps != 1 || st.MetricEpoch == 0 || st.Delivered == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStopIsIdempotentAndStopsDelivery(t *testing.T) {
	h := rig(t, platform.Options{})
	h.observe(t, NewUserEventScope("all"))
	h.start(t)
	h.svc.Stop()
	h.svc.Stop()
	// Stop closed the queue and waited for the dispatcher to exit, so
	// a late event is refused, not delivered later.
	h.svc.RaiseUserEvent("late", nil)
	if d := h.svc.Stats().QueueDepth; d != 0 || h.rec.countKind(KindUserEvent) != 0 {
		t.Fatalf("event delivered or queued (depth %d) after Stop", d)
	}
}

// TestScopeFilterSemanticsTable pins the §4.1 subscope rule on eventData,
// no platform needed: every scope type × every builder with a matching and
// a non-matching row, composite filters against a real graph and without
// one, and every type against an event of every kind.
func TestScopeFilterSemanticsTable(t *testing.T) {
	d := &eventData{
		kind: KindOperatorMetric, app: "A", operator: "x.op", operatorKind: "Split",
		pe: 7, metric: "queueSize", custom: false,
	}
	custom := &eventData{kind: KindOperatorMetric, app: "A", operator: "x.op", metric: "myGauge", custom: true}
	pm := &eventData{kind: KindPEMetric, app: "A", pe: 7, metric: metrics.PETupleBytesProcessed}
	port := &eventData{
		kind: KindPortMetric, app: "A", operator: "x.op", operatorKind: "Split",
		pe: 7, port: 0, dir: metrics.Input, metric: metrics.PortFinalPunctsQueued,
	}
	pf := &eventData{kind: KindPEFailure, app: "A", pe: 7, host: "h1"}
	hf := &eventData{kind: KindHostFailure, host: "h1"}
	sub := &eventData{kind: KindJobSubmitted, app: "A"}
	can := &eventData{kind: KindJobCancelled, app: "A"}
	tm := &eventData{kind: KindTimer, name: "tick"}
	ue := &eventData{kind: KindUserEvent, name: "reload"}

	// The Figure 2 graph: c1.op3 is a Split inside instance c1 of
	// composite1; op1 is a top-level Beacon.
	app := figure2App(t, "G")
	peIDs := map[int]ids.PEID{}
	for _, p := range app.PEs {
		peIDs[p.Index] = ids.PEID(p.Index + 1)
	}
	g, err := graph.Build(app, 1, peIDs, nil)
	if err != nil {
		t.Fatal(err)
	}
	inComp := &eventData{kind: KindOperatorMetric, app: "G", operator: "c1.op3", operatorKind: ops.KindSplit}
	topLevel := &eventData{kind: KindOperatorMetric, app: "G", operator: "op1", operatorKind: ops.KindBeacon}
	noOp := &eventData{kind: KindOperatorMetric, app: "G"}
	portInComp := &eventData{kind: KindPortMetric, app: "G", operator: "c1.op3", dir: metrics.Output}

	cases := []struct {
		name  string
		scope Scope
		d     *eventData
		g     *graph.Graph
		want  bool
	}{
		// OperatorMetricScope.
		{"no filters matches", NewOperatorMetricScope("k"), d, nil, true},
		{"same attr disjunctive", NewOperatorMetricScope("k").AddApplicationFilter("B", "A"), d, nil, true},
		{"wrong app", NewOperatorMetricScope("k").AddApplicationFilter("B"), d, nil, false},
		{"cross attr conjunctive", NewOperatorMetricScope("k").AddApplicationFilter("A").AddOperatorTypeFilter("Merge"), d, nil, false},
		{"kind and app", NewOperatorMetricScope("k").AddApplicationFilter("A").AddOperatorTypeFilter("Split"), d, nil, true},
		{"wrong operator type", NewOperatorMetricScope("k").AddOperatorTypeFilter("Merge"), d, nil, false},
		{"metric name", NewOperatorMetricScope("k").AddOperatorMetric("queueSize"), d, nil, true},
		{"wrong metric", NewOperatorMetricScope("k").AddOperatorMetric("nTuplesProcessed"), d, nil, false},
		{"custom only rejects builtin", NewOperatorMetricScope("k").CustomMetricsOnly(), d, nil, false},
		{"custom only admits custom", NewOperatorMetricScope("k").CustomMetricsOnly(), custom, nil, true},
		{"pe filter", NewOperatorMetricScope("k").AddPEFilter(7, 9), d, nil, true},
		{"wrong pe", NewOperatorMetricScope("k").AddPEFilter(9), d, nil, false},
		{"operator name", NewOperatorMetricScope("k").AddOperatorNameFilter("x.op"), d, nil, true},
		{"wrong operator name", NewOperatorMetricScope("k").AddOperatorNameFilter("y.op"), d, nil, false},
		{"composite type", NewOperatorMetricScope("k").AddCompositeTypeFilter("other", "composite1"), inComp, g, true},
		{"wrong composite type", NewOperatorMetricScope("k").AddCompositeTypeFilter("other"), inComp, g, false},
		{"composite type outside composites", NewOperatorMetricScope("k").AddCompositeTypeFilter("composite1"), topLevel, g, false},
		{"composite type without operator", NewOperatorMetricScope("k").AddCompositeTypeFilter("composite1"), noOp, g, false},
		{"composite type without graph", NewOperatorMetricScope("k").AddCompositeTypeFilter("composite1"), inComp, nil, false},
		{"composite instance", NewOperatorMetricScope("k").AddCompositeInstanceFilter("c2", "c1"), inComp, g, true},
		{"wrong composite instance", NewOperatorMetricScope("k").AddCompositeInstanceFilter("c2"), inComp, g, false},
		{"composite instance outside composites", NewOperatorMetricScope("k").AddCompositeInstanceFilter("c1"), topLevel, g, false},
		{"composite instance without graph", NewOperatorMetricScope("k").AddCompositeInstanceFilter("c1"), inComp, nil, false},
		{"composite type and instance", NewOperatorMetricScope("k").AddCompositeTypeFilter("composite1").AddCompositeInstanceFilter("c1"), inComp, g, true},
		{"composite type but wrong instance", NewOperatorMetricScope("k").AddCompositeTypeFilter("composite1").AddCompositeInstanceFilter("c2"), inComp, g, false},
		{"wrong kind scope", NewPEFailureScope("k"), d, nil, false},

		// PEMetricScope.
		{"pe metric app", NewPEMetricScope("k").AddApplicationFilter("B", "A"), pm, nil, true},
		{"pe metric wrong app", NewPEMetricScope("k").AddApplicationFilter("B"), pm, nil, false},
		{"pe metric pe", NewPEMetricScope("k").AddPEFilter(9, 7), pm, nil, true},
		{"pe metric wrong pe", NewPEMetricScope("k").AddPEFilter(9), pm, nil, false},
		{"pe metric name", NewPEMetricScope("k").AddPEMetric(metrics.PETupleBytesProcessed), pm, nil, true},
		{"pe metric wrong name", NewPEMetricScope("k").AddPEMetric(metrics.PERestarts), pm, nil, false},
		{"pe metric conjunctive", NewPEMetricScope("k").AddPEFilter(7).AddPEMetric(metrics.PERestarts), pm, nil, false},

		// PortMetricScope.
		{"port app", NewPortMetricScope("k").AddApplicationFilter("A"), port, nil, true},
		{"port wrong app", NewPortMetricScope("k").AddApplicationFilter("B"), port, nil, false},
		{"port operator type", NewPortMetricScope("k").AddOperatorTypeFilter("Split"), port, nil, true},
		{"port wrong operator type", NewPortMetricScope("k").AddOperatorTypeFilter("Merge"), port, nil, false},
		{"port operator name", NewPortMetricScope("k").AddOperatorNameFilter("x.op"), port, nil, true},
		{"port wrong operator name", NewPortMetricScope("k").AddOperatorNameFilter("y.op"), port, nil, false},
		{"port composite type", NewPortMetricScope("k").AddCompositeTypeFilter("composite1"), portInComp, g, true},
		{"port wrong composite type", NewPortMetricScope("k").AddCompositeTypeFilter("other"), portInComp, g, false},
		{"port composite type without graph", NewPortMetricScope("k").AddCompositeTypeFilter("composite1"), portInComp, nil, false},
		{"port index", NewPortMetricScope("k").AddPortFilter(1, 0), port, nil, true},
		{"port wrong index", NewPortMetricScope("k").AddPortFilter(1, 2), port, nil, false},
		{"port direction", NewPortMetricScope("k").SetDirection(metrics.Input), port, nil, true},
		{"port wrong direction", NewPortMetricScope("k").SetDirection(metrics.Output), port, nil, false},
		{"port last direction wins", NewPortMetricScope("k").SetDirection(metrics.Output).SetDirection(metrics.Input), port, nil, true},
		{"port metric name", NewPortMetricScope("k").AddPortMetric(metrics.PortFinalPunctsQueued), port, nil, true},
		{"port wrong metric name", NewPortMetricScope("k").AddPortMetric(metrics.PortTuplesProcessed), port, nil, false},
		{"port combined", NewPortMetricScope("k").AddPortFilter(0).AddOperatorNameFilter("x.op").SetDirection(metrics.Input), port, nil, true},

		// PEFailureScope.
		{"pe failure app", NewPEFailureScope("k").AddApplicationFilter("A"), pf, nil, true},
		{"pe failure wrong app", NewPEFailureScope("k").AddApplicationFilter("B"), pf, nil, false},
		{"pe failure pe", NewPEFailureScope("k").AddPEFilter(7), pf, nil, true},
		{"pe failure wrong pe", NewPEFailureScope("k").AddPEFilter(9), pf, nil, false},
		{"pe failure host", NewPEFailureScope("k").AddHostFilter("h2", "h1"), pf, nil, true},
		{"pe failure wrong host", NewPEFailureScope("k").AddHostFilter("h2"), pf, nil, false},
		{"pe failure app but wrong host", NewPEFailureScope("k").AddApplicationFilter("A").AddHostFilter("h2"), pf, nil, false},

		// HostFailureScope.
		{"host failure host", NewHostFailureScope("k").AddHostFilter("h1"), hf, nil, true},
		{"host failure wrong host", NewHostFailureScope("k").AddHostFilter("h2"), hf, nil, false},

		// JobEventScope, both directions.
		{"job submission", NewJobEventScope("k"), sub, nil, true},
		{"job cancellation", NewJobEventScope("k"), can, nil, true},
		{"job submissions only admits submission", NewJobEventScope("k").SubmissionsOnly(), sub, nil, true},
		{"job submissions only rejects cancellation", NewJobEventScope("k").SubmissionsOnly(), can, nil, false},
		{"job cancellations only admits cancellation", NewJobEventScope("k").CancellationsOnly(), can, nil, true},
		{"job cancellations only rejects submission", NewJobEventScope("k").CancellationsOnly(), sub, nil, false},
		{"job last direction wins", NewJobEventScope("k").SubmissionsOnly().CancellationsOnly(), can, nil, true},
		{"job app", NewJobEventScope("k").AddApplicationFilter("A"), can, nil, true},
		{"job wrong app", NewJobEventScope("k").AddApplicationFilter("B"), sub, nil, false},

		// TimerScope and UserEventScope.
		{"timer name", NewTimerScope("k").AddTimerFilter("once", "tick"), tm, nil, true},
		{"timer wrong name", NewTimerScope("k").AddTimerFilter("once"), tm, nil, false},
		{"user event name", NewUserEventScope("k").AddNameFilter("reload"), ue, nil, true},
		{"user event wrong name", NewUserEventScope("k").AddNameFilter("ignored"), ue, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.scope.matches(tc.d, tc.g); got != tc.want {
				t.Fatalf("matches = %v, want %v", got, tc.want)
			}
		})
	}

	// An unfiltered scope of each type admits exactly its own kinds.
	events := []*eventData{{kind: KindOrcaStart}, d, pm, port, pf, hf, sub, can, tm, ue}
	own := []struct {
		scope Scope
		kinds []EventKind
	}{
		{NewOperatorMetricScope("k"), []EventKind{KindOperatorMetric}},
		{NewPEMetricScope("k"), []EventKind{KindPEMetric}},
		{NewPortMetricScope("k"), []EventKind{KindPortMetric}},
		{NewPEFailureScope("k"), []EventKind{KindPEFailure}},
		{NewHostFailureScope("k"), []EventKind{KindHostFailure}},
		{NewJobEventScope("k"), []EventKind{KindJobSubmitted, KindJobCancelled}},
		{NewTimerScope("k"), []EventKind{KindTimer}},
		{NewUserEventScope("k"), []EventKind{KindUserEvent}},
	}
	for _, o := range own {
		t.Run(fmt.Sprintf("%T kinds", o.scope), func(t *testing.T) {
			for _, e := range events {
				if got, want := o.scope.matches(e, g), slices.Contains(o.kinds, e.kind); got != want {
					t.Errorf("%s event: matches = %v, want %v", e.kind, got, want)
				}
			}
		})
	}
}

func TestPortMetricScopeSemantics(t *testing.T) {
	d := &eventData{
		kind: KindPortMetric, app: "A", operator: "sink", operatorKind: "CollectSink",
		pe: 3, port: 0, dir: metrics.Input, metric: metrics.PortFinalPunctsQueued,
	}
	if !NewPortMetricScope("k").AddPortMetric(metrics.PortFinalPunctsQueued).matches(d, nil) {
		t.Fatal("port metric scope failed")
	}
	if NewPortMetricScope("k").SetDirection(metrics.Output).matches(d, nil) {
		t.Fatal("direction filter failed")
	}
	if NewPortMetricScope("k").AddPortFilter(1, 2).matches(d, nil) {
		t.Fatal("port filter failed")
	}
	if !NewPortMetricScope("k").AddPortFilter(0).AddOperatorNameFilter("sink").matches(d, nil) {
		t.Fatal("combined port scope failed")
	}
}

func TestJobEventScopeDirections(t *testing.T) {
	sub := &eventData{kind: KindJobSubmitted, app: "A"}
	can := &eventData{kind: KindJobCancelled, app: "A"}
	both := NewJobEventScope("k")
	if !both.matches(sub, nil) || !both.matches(can, nil) {
		t.Fatal("default job scope misses events")
	}
	if NewJobEventScope("k").SubmissionsOnly().matches(can, nil) {
		t.Fatal("SubmissionsOnly matched a cancel")
	}
	if NewJobEventScope("k").CancellationsOnly().matches(sub, nil) {
		t.Fatal("CancellationsOnly matched a submit")
	}
	if NewJobEventScope("k").AddApplicationFilter("B").matches(sub, nil) {
		t.Fatal("app filter failed")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []EventKind{KindOrcaStart, KindOperatorMetric, KindPEMetric, KindPortMetric,
		KindPEFailure, KindHostFailure, KindJobSubmitted, KindJobCancelled, KindTimer, KindUserEvent}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad name %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(0).String() != "unknown" {
		t.Fatal("zero kind not unknown")
	}
	if !strings.Contains(ids.PEID(3).String(), "3") {
		t.Fatal("PEID string")
	}
}

// TestPEMetricScopeDeliversByteCounters covers the PE-scoped metric path
// (the §1 example of a built-in metric: connection/byte throughput).
func TestPEMetricScopeDeliversByteCounters(t *testing.T) {
	h := rig(t, platform.Options{})
	if err := h.svc.RegisterApplication(simpleApp(t, "PM", "pm", "50")); err != nil {
		t.Fatal(err)
	}
	h.observe(t, NewPEMetricScope("bytes").
		AddApplicationFilter("PM").
		AddPEMetric(metrics.PETupleBytesProcessed, metrics.PETupleBytesSubmitted))
	h.start(t)
	if _, err := h.svc.SubmitApplication("PM", nil); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "done", func() bool { return h.coll("pm").Finals() == 1 })
	h.inst.FlushMetrics()
	h.svc.PullMetricsNow()
	wait.For(t, "pe metric events", func() bool { return h.rec.countKind(KindPEMetric) >= 2 })
	var sawBytes bool
	for _, e := range h.rec.snapshot() {
		if e.kind != KindPEMetric {
			continue
		}
		ctx := e.ctx.(*PEMetricContext)
		if ctx.Metric != metrics.PETupleBytesProcessed && ctx.Metric != metrics.PETupleBytesSubmitted {
			t.Fatalf("unexpected PE metric %q", ctx.Metric)
		}
		if ctx.Value > 0 {
			sawBytes = true
		}
	}
	if !sawBytes {
		t.Fatal("no non-zero byte counters: cross-PE link not serializing?")
	}
}

// TestPEFailureScopeHostFilter: host-attribute filtering on failure
// scopes (conjunctive with the application filter).
func TestPEFailureScopeHostFilter(t *testing.T) {
	h := rig(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2")})
	app := simpleApp(t, "HF", "hf1", "0")
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	h.observe(t, NewPEFailureScope("onlyH2").
		AddApplicationFilter("HF").AddHostFilter("h2"))
	h.start(t)
	job, err := h.svc.SubmitApplication("HF", nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := h.svc.Graph(job)
	var onH1, onH2 ids.PEID
	for _, pe := range g.PEIDs() {
		if host, _ := g.HostOfPE(pe); host == "h1" {
			onH1 = pe
		} else {
			onH2 = pe
		}
	}
	if onH1 == ids.InvalidPE || onH2 == ids.InvalidPE {
		t.Fatalf("placement not spread: %v", g.PEIDs())
	}
	// Failure on h1 is filtered out; failure on h2 is delivered.
	if err := h.svc.KillPE(onH1, "filtered"); err != nil {
		t.Fatal(err)
	}
	if err := h.svc.KillPE(onH2, "delivered"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "h2 failure", func() bool { return h.rec.countKind(KindPEFailure) >= 1 })
	for _, e := range h.rec.snapshot() {
		if e.kind == KindPEFailure {
			ctx := e.ctx.(*PEFailureContext)
			if ctx.Host != "h2" || ctx.Reason != "delivered" {
				t.Fatalf("filtered failure delivered: %+v", ctx)
			}
		}
	}
}
