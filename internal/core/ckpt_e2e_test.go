package core

import (
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

// aggApp builds Beacon -> Aggregate -> CollectSink across three PEs.
// The manual clock never advances, so the aggregate's sliding window
// never expires and its "count" output increases monotonically — a
// direct readout of how much window state the operator holds.
func aggApp(t *testing.T, name, collector string) *adl.Application {
	t.Helper()
	tickS := tuple.MustSchema(
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "price", Type: tuple.Float},
	)
	outS := tuple.MustSchema(
		tuple.Attribute{Name: "avg", Type: tuple.Float},
		tuple.Attribute{Name: "count", Type: tuple.Int},
	)
	b := compiler.NewApp(name)
	src := b.AddOperator("src", ops.KindBeacon).Out(tickS).Param("count", "0")
	agg := b.AddOperator("agg", ops.KindAggregate).In(tickS).Out(outS).
		Param("window", "10m").Param("valueAttr", "price")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(outS).Param("collectorId", collector)
	b.Connect(src, 0, agg, 0)
	b.Connect(agg, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestHandlePEFailureRestoresAggregateState is the end-to-end recovery
// path: checkpoint the aggregation PE, kill it, let the ORCA policy's
// HandlePEFailure restart it, and verify the restarted operator resumes
// from the checkpointed window instead of an empty one (output counts
// continue past the pre-failure value rather than restarting at 1).
func TestHandlePEFailureRestoresAggregateState(t *testing.T) {
	store := ckpt.NewMemStore()
	h := rig(t, platform.Options{Checkpoint: store})
	coll := "ckpt-e2e"
	app := aggApp(t, "CkptE2E", coll)
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	coll2 := h.coll(coll)
	// preLen carries the collector length once the dead PE's in-flight
	// output drained: the handler quiesces, records the boundary, and
	// only then restarts — so the tuple at index preLen is the restored
	// container's first output.
	preLen := make(chan int, 1)
	restarted := make(chan ids.PEID, 4)
	h.observe(t, NewPEFailureScope("pf").AddApplicationFilter("CkptE2E"))
	h.rec.onEvent = func(svc *Service, kind EventKind, ctx any, scopes []string) {
		if kind == KindPEFailure {
			fc := ctx.(*PEFailureContext)
			n, ok := quiet(coll2, 50*time.Millisecond)
			if !ok {
				t.Errorf("collection never quiet for 50ms after the kill: length %d", n)
				preLen <- -1
				return
			}
			preLen <- n
			if err := svc.RestartPE(fc.PE); err != nil {
				t.Errorf("restart %s: %v", fc.PE, err)
				return
			}
			restarted <- fc.PE
		}
	}
	h.start(t)
	job, err := h.svc.SubmitApplication("CkptE2E", nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := h.svc.Graph(job)
	aggPE, ok := g.PEOfOperator("agg")
	if !ok {
		t.Fatal("no agg PE")
	}

	lastCount := func() int64 {
		tp, ok := h.coll(coll).Last()
		if !ok {
			return 0
		}
		return tp.Int("count")
	}
	wait.For(t, "window to accumulate", func() bool { return lastCount() >= 50 })

	// Observe the fill BEFORE capturing: the captured state can only be
	// at or past this value, so the continuity assertion below holds for
	// every restored run and no cold one.
	countAtCkpt := lastCount()
	// On-demand snapshot through the orchestrator actuation, with a
	// deadline: a capture once starved behind a full inbox for a minute.
	wait.Within(t, "CheckpointPE", func() {
		if err := h.svc.CheckpointPE(aggPE); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	if err := h.svc.KillPE(aggPE, "injected stateful-PE failure"); err != nil {
		t.Fatal(err)
	}
	var boundary int
	wait.Within(t, "the failure event", func() { boundary = <-preLen })
	if boundary < 0 {
		t.FailNow()
	}
	wait.Within(t, "the policy's restart", func() { <-restarted })

	// Continuity: the restored window's FIRST output resumes past the
	// checkpointed fill. A cold restart would emit count 1 there (and,
	// since this window never expires, would eventually catch up — which
	// is why the assertion pins the first post-restart tuple, not an
	// eventual value).
	wait.For(t, "post-restart output", func() bool { return coll2.Len() > boundary })
	if got := coll2.Tuples()[boundary].Int("count"); got <= countAtCkpt {
		t.Fatalf("first post-restart count %d <= checkpointed %d: window restarted cold", got, countAtCkpt)
	}

	// The restarted container must report the restore in its metrics.
	c, ok := h.inst.Cluster.PEContainer(aggPE)
	if !ok {
		t.Fatal("restarted container missing")
	}
	if got := c.PEMetrics().Counter(metrics.PEStateRestores).Value(); got < 1 {
		t.Fatalf("nStateRestores = %d", got)
	}
}

// TestCancelJobDropsCheckpoints: cancelling a job garbage-collects its
// PEs' snapshots from the store.
func TestCancelJobDropsCheckpoints(t *testing.T) {
	store := ckpt.NewMemStore()
	h := rig(t, platform.Options{Checkpoint: store})
	coll := "ckpt-cancel"
	app := aggApp(t, "CkptCancel", coll)
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	h.observe(t, NewJobEventScope("jobs").AddApplicationFilter("CkptCancel"))
	h.start(t)
	job, err := h.svc.SubmitApplication("CkptCancel", nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := h.svc.Graph(job)
	aggPE, _ := g.PEOfOperator("agg")
	wait.For(t, "flow", func() bool { return h.coll(coll).Len() > 2 })
	if err := h.svc.CheckpointPE(aggPE); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("snapshots = %d", store.Len())
	}
	if err := h.svc.CancelJob(job); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("snapshots after cancel = %d", store.Len())
	}
}
