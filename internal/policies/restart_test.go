package policies

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

// twoAttempts is the retry policy of the restart fixtures that exhaust it.
var twoAttempts = sam.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}

// restartFixture runs an unbounded source → sink pipeline, partitioned
// by fusion, on one host under the given Restart routine and retry
// policy.
func restartFixture(t *testing.T, r *Restart, retry sam.RetryPolicy, fusion compiler.FusionMode) (*core.Service, *platform.Instance, ids.JobID) {
	t.Helper()
	inst := platformtest.Boot(t, platform.Options{Retry: retry})
	s := tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})
	b := compiler.NewApp(r.App)
	src := b.AddOperator("src", ops.KindBeacon).Out(s).Param("count", "0").Param("period", "1ms")
	sink := b.AddOperator("sink", ops.KindCountSink).In(s)
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: fusion})
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
	svc, inst, job = restartFixture(t, r, twoAttempts, compiler.FuseNone)
	pe, ok := svc.PEOfOperator(job, "sink")
	if !ok {
		t.Fatal("no sink PE")
	}
	if err := svc.KillPE(pe, "test"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "both hooks", func() bool {
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
		svc, inst, _ := restartFixture(t, r, twoAttempts, compiler.FuseNone)
		if err := inst.Cluster.KillHost("h1"); err != nil {
			t.Fatal(err)
		}
		wait.For(t, "both restarts abandoned", func() bool { return r.Abandoned() == 2 })
		// Let a wrongly issued re-restart show up before counting.
		wait.For(t, "event queue drained", func() bool { return svc.Stats().QueueDepth == 0 })
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

// TestPEHistoryReadsInOrder reads one PE's recovery from the journal.
// Its only host dies, killing it, and SAM sees the crash. The routine's
// RestartPE fails while the host is down, with a backoff after each
// failure. The host comes back within the retry budget, an attempt
// succeeds, SAM journals the restart, and the orchestrator journals the
// RestartPE actuation under the transaction id of the failure event
// whose handler issued it.
func TestPEHistoryReadsInOrder(t *testing.T) {
	var failureTx atomic.Uint64
	r := &Restart{App: "PEHistory", Submit: true, Before: func(ctx *core.PEFailureContext) { failureTx.Store(ctx.TxID) }}
	retry := sam.DefaultRetryPolicy()
	retry.MaxAttempts = 10 // about a second of backoff: room to revive the host
	svc, inst, job := restartFixture(t, r, retry, compiler.FuseAll)
	info, _ := inst.SAM.Job(job)
	if len(info.PEs) != 1 {
		t.Fatalf("fused job has %d PEs, want 1", len(info.PEs))
	}
	id := info.PEs[0].ID
	// How many in-flight runs a kill catches (journalled as drop-run)
	// depends on timing; the lifecycle around them does not.
	history := func() []journal.Event {
		return slices.DeleteFunc(inst.SAM.Journal().Events(), func(e journal.Event) bool {
			return e.PE != id || e.Action == "drop-run"
		})
	}
	has := func(action string, failed bool) func() bool {
		return func() bool {
			return slices.ContainsFunc(history(), func(e journal.Event) bool {
				return e.Action == action && (e.Err != "") == failed
			})
		}
	}
	if err := inst.Cluster.KillHost("h1"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "a failed restart attempt", has("restart", true))
	if err := inst.Cluster.ReviveHost("h1"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "the RestartPE actuation", has("RestartPE", false))

	h := history()
	n := len(h)
	fail := func(why string) {
		t.Helper()
		var lines []string
		for _, e := range h {
			lines = append(lines, fmt.Sprintf("%s:%s attempt=%d backoff=%s err=%q tx=%d", e.Source, e.Action, e.Attempt, e.Backoff, e.Err, e.TxID))
		}
		t.Fatalf("%s; history of %s:\n%s", why, id, strings.Join(lines, "\n"))
	}
	if n < 6 || h[0].Source != "pe" || h[0].Action != "kill" || h[1].Source != "sam" || h[1].Action != "crashed" {
		fail("want kill, crashed, restart attempts, restarted, RestartPE")
	}
	for i, e := range h[2 : n-2] {
		last := i == n-5
		if e.Source != "sam" || e.Action != "restart" || e.Attempt != i+1 || (e.Err == "") != last || (e.Backoff > 0) == last {
			fail(fmt.Sprintf("attempt %d: want a failed attempt with a backoff, or the last and successful one without", i+1))
		}
	}
	if h[n-2].Source != "sam" || h[n-2].Action != "restarted" {
		fail("no restarted after the successful attempt")
	}
	if act := h[n-1]; act.Source != "restartOrca" || act.Action != "RestartPE" || act.Err != "" || act.TxID == 0 || act.TxID != failureTx.Load() {
		fail(fmt.Sprintf("the RestartPE actuation must carry the failure event's tx %d", failureTx.Load()))
	}
	if got := svc.ActuationJournal(); !slices.ContainsFunc(got, func(e journal.Event) bool { return e.Seq == h[n-1].Seq }) {
		t.Fatalf("ActuationJournal lacks the RestartPE actuation: %+v", got)
	}
}
