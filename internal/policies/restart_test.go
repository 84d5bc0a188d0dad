package policies

import (
	"sync"
	"testing"
	"time"

	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
)

// restartFixture runs an unbounded two-PE pipeline on one host under the
// given Restart routine, on a platform whose restarts get two attempts.
func restartFixture(t *testing.T, r *Restart) (*core.Service, *platform.Instance, ids.JobID) {
	t.Helper()
	inst, err := platform.NewInstance(platform.Options{
		Hosts:           []platform.HostSpec{{Name: "h1"}},
		MetricsInterval: time.Hour,
		Retry:           sam.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	s := tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})
	b := compiler.NewApp(r.App)
	src := b.AddOperator("src", ops.KindBeacon).Out(s).Param("count", "0").Param("period", "1ms")
	sink := b.AddOperator("sink", ops.KindCountSink).In(s)
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewRoutineService(core.Config{
		Name: "restartOrca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	jobs := svc.ManagedJobs()
	if len(jobs) != 1 {
		t.Fatalf("Submit did not leave the routine owning one job: %v", jobs)
	}
	return svc, inst, jobs[0].Job
}

func peState(inst *platform.Instance, job ids.JobID, pe ids.PEID) string {
	info, _ := inst.SAM.Job(job)
	for _, p := range info.PEs {
		if p.ID == pe {
			return p.State
		}
	}
	return ""
}

func restartActuations(svc *core.Service) int {
	n := 0
	for _, rec := range svc.ActuationJournal() {
		if rec.Action == "RestartPE" {
			n++
		}
	}
	return n
}

// TestRestartRunsHooksAroundTheRestart: a killed PE comes back, the
// pre-restart hook sees it still down, the notification sees it running.
func TestRestartRunsHooksAroundTheRestart(t *testing.T) {
	var mu sync.Mutex
	var calls []string
	var inst *platform.Instance
	var job ids.JobID
	note := func(hook string) func(*core.PEFailureContext) {
		return func(ctx *core.PEFailureContext) {
			mu.Lock()
			calls = append(calls, hook+":"+peState(inst, job, ctx.PE))
			mu.Unlock()
		}
	}
	r := &Restart{App: "RestartHooks", Submit: true, Before: note("before"), Restarted: note("restarted")}
	var svc *core.Service
	svc, inst, job = restartFixture(t, r)
	pe, ok := svc.PEOfOperator(job, "sink")
	if !ok {
		t.Fatal("no sink PE")
	}
	if err := svc.KillPE(pe, "test"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both hooks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(calls) == 2
	})
	if calls[0] != "before:crashed" || calls[1] != "restarted:running" {
		t.Fatalf("hooks ran as %v, want [before:crashed restarted:running]", calls)
	}
	if r.Abandoned() != 0 || restartActuations(svc) != 1 {
		t.Fatalf("abandoned %d, restart actuations %d; want 0 and 1", r.Abandoned(), restartActuations(svc))
	}
}

// TestRestartCountsAbandonedWithoutReactuating is the producer→consumer
// round trip of sam.RestartAbandoned: with the only host down SAM
// exhausts the retry budget of both restarts and pushes a degradation
// notification for each, which the routine counts and does not answer
// with another RestartPE. The failed restarts surface as handler errors
// exactly when the caller asked for Strict.
func TestRestartCountsAbandonedWithoutReactuating(t *testing.T) {
	for _, strict := range []bool{false, true} {
		restarted := 0
		r := &Restart{
			App: "RestartAbandoned", Submit: true, Strict: strict,
			Restarted: func(*core.PEFailureContext) { restarted++ },
		}
		svc, inst, _ := restartFixture(t, r)
		if err := inst.Cluster.KillHost("h1"); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "both restarts abandoned", func() bool { return r.Abandoned() == 2 })
		// Let a wrongly issued re-restart show up before counting.
		waitFor(t, "event queue drained", func() bool { return svc.Stats().QueueDepth == 0 })
		if got := restartActuations(svc); got != 2 {
			t.Fatalf("strict=%v: %d RestartPE actuations, want 2 (one per crash, none per abandonment)", strict, got)
		}
		wantErrs := uint64(0)
		if strict {
			wantErrs = 2
		}
		if got := svc.Stats().HandlerErrors; got != wantErrs {
			t.Fatalf("strict=%v: %d handler errors, want %d", strict, got, wantErrs)
		}
		if restarted != 0 {
			t.Fatalf("strict=%v: Restarted ran %d time(s) for restarts that failed", strict, restarted)
		}
	}
}
