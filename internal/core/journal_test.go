package core

import (
	"sync/atomic"
	"testing"

	"streamorca/internal/compiler"
)

// TestTxIDsAreAssignedInDeliveryOrder covers the §7 extension: every
// delivered event carries a monotonically increasing transaction id.
func TestTxIDsAreAssignedInDeliveryOrder(t *testing.T) {
	h := newHarness(t)
	h.observe(t, NewUserEventScope("all"))
	h.start(t)
	for _, n := range []string{"a", "b", "c"} {
		h.svc.RaiseUserEvent(n, nil)
	}
	waitFor(t, "events", func() bool { return h.rec.countKind(KindUserEvent) == 3 })
	var last uint64
	for _, e := range h.rec.snapshot() {
		var tx uint64
		switch ctx := e.ctx.(type) {
		case *OrcaStartContext:
			tx = ctx.TxID
		case *UserEventContext:
			tx = ctx.TxID
		default:
			continue
		}
		if tx <= last {
			t.Fatalf("tx ids not increasing: %d after %d", tx, last)
		}
		last = tx
	}
}

// TestActuationJournalTagsHandlerActions: actuations issued inside an
// event handler are journalled under that event's transaction id;
// actuations from outside carry tx 0.
func TestActuationJournalTagsHandlerActions(t *testing.T) {
	h := newHarness(t)
	if err := h.svc.RegisterApplication(simpleApp(t, "AJ", "aj", "0")); err != nil {
		t.Fatal(err)
	}
	var handledTx atomic.Uint64 // written by the handler goroutine
	h.observe(t, NewUserEventScope("all"))
	h.rec.onEvent = func(svc *Service, kind EventKind, ctx any, scopes []string) {
		if kind != KindUserEvent {
			return
		}
		tx := ctx.(*UserEventContext).TxID
		handledTx.Store(tx)
		if svc.CurrentTxID() != tx {
			t.Errorf("CurrentTxID %d != event tx %d", svc.CurrentTxID(), tx)
		}
		if _, err := svc.SubmitApplication("AJ", nil); err != nil {
			t.Error(err)
		}
	}
	h.start(t)
	h.svc.RaiseUserEvent("go", nil)
	// The recorder counts the event before the handler submits, and the
	// submission is journalled before the job is managed: wait for the
	// journal record, the managed job, and the handler to have returned
	// (the cancel below must run outside its transaction).
	waitFor(t, "handler's submission", func() bool {
		return journalHas(h.svc, "SubmitApplication") && len(h.svc.ManagedJobs()) == 1 && h.svc.CurrentTxID() == 0
	})

	// An actuation outside any handler is journalled under tx 0.
	jobs := h.svc.ManagedJobs()
	if len(jobs) != 1 {
		t.Fatalf("managed jobs = %v", jobs)
	}
	if err := h.svc.CancelJob(jobs[0].Job); err != nil {
		t.Fatal(err)
	}

	journal := h.svc.ActuationJournal()
	if len(journal) < 2 {
		t.Fatalf("journal = %+v", journal)
	}
	var sawSubmit, sawCancel bool
	var lastSeq uint64
	for _, rec := range journal {
		if rec.Seq <= lastSeq {
			t.Fatalf("journal sequence not increasing: %+v", journal)
		}
		lastSeq = rec.Seq
		switch rec.Action {
		case "SubmitApplication":
			sawSubmit = true
			if rec.TxID != handledTx.Load() || rec.Target != "AJ" || rec.Err != "" {
				t.Fatalf("submit record = %+v (want tx %d)", rec, handledTx.Load())
			}
		case "CancelJob":
			sawCancel = true
			if rec.TxID != 0 || rec.Err != "" {
				t.Fatalf("cancel record = %+v (want tx 0)", rec)
			}
		}
	}
	if !sawSubmit || !sawCancel {
		t.Fatalf("journal missing actions: %+v", journal)
	}
	if h.svc.CurrentTxID() != 0 {
		t.Fatal("CurrentTxID non-zero outside handlers")
	}
}

// journalHas reports whether the service's actuation journal holds an action.
func journalHas(svc *Service, action string) bool {
	for _, rec := range svc.ActuationJournal() {
		if rec.Action == action {
			return true
		}
	}
	return false
}

// TestActuationJournalRecordsFailures: refused actuations are journalled
// with their error, so replay can distinguish attempted from effective
// actions.
func TestActuationJournalRecordsFailures(t *testing.T) {
	h := newHarness(t)
	h.start(t)
	if err := h.svc.CancelJob(424242); err == nil {
		t.Fatal("expected ErrUnmanagedJob")
	}
	journal := h.svc.ActuationJournal()
	if len(journal) != 1 || journal[0].Action != "CancelJob" || journal[0].Err == "" {
		t.Fatalf("journal = %+v", journal)
	}
}

// TestRepartitionApplication covers the §4.3 extension: rewriting the
// registered artifact's partitioning before submission.
func TestRepartitionApplication(t *testing.T) {
	h := newHarness(t)
	h.start(t)
	app := simpleApp(t, "RP", "rp", "8") // FuseNone: 2 PEs
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	if err := h.svc.RepartitionApplication("RP", compiler.Options{Fusion: compiler.FuseAll}); err != nil {
		t.Fatal(err)
	}
	got, _ := h.svc.RegisteredApplication("RP")
	if len(got.PEs) != 1 {
		t.Fatalf("repartitioned PEs = %d", len(got.PEs))
	}
	// The rewritten application still runs.
	job, err := h.svc.SubmitApplication("RP", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "completion", func() bool { return h.coll("rp").Finals() == 1 })
	g, _ := h.svc.Graph(job)
	if len(g.PEIDs()) != 1 {
		t.Fatalf("running PEs = %v", g.PEIDs())
	}
	if err := h.svc.RepartitionApplication("ghost", compiler.Options{}); err == nil {
		t.Fatal("repartition of unknown app succeeded")
	}
	// Both attempts are journalled.
	var n int
	for _, rec := range h.svc.ActuationJournal() {
		if rec.Action == "RepartitionApplication" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("repartition journal entries = %d", n)
	}
}
