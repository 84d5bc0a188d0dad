package transport

import (
	"testing"

	"streamorca/internal/opapi"
	"streamorca/internal/pe"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

// These tests spy on leased blocks through tuple headers kept against
// the rules; see the note at the top of pe's lease_test.go for what the
// headers read and when they may be read.
const (
	poisonNum = -0xDEADB10C // tuple's race-build poison (tuple/block.go)
	poisonStr = "<recycled>"
)

// poisoning reports whether this build poisons recycled blocks.
var poisoning = func() bool {
	ts, blk := tuple.Lease(intOnly, nil, 1)
	blk.Release()
	return ts[0].Int("v") == poisonNum
}()

// leasedItems builds n leased int tuples v = base.. as a run of items,
// returning the headers for spying and the block, on which the caller —
// the sender — has the birth hold.
func leasedItems(base, n int) ([]pe.Item, []tuple.Tuple, *tuple.Block) {
	ts, blk := tuple.Lease(intOnly, nil, n)
	items := make([]pe.Item, n)
	for i, t := range ts {
		intOnly.MustRef("v").SetInt(t, int64(base+i))
		items[i] = pe.TupleItem(t)
	}
	return items, ts, blk
}

func mustBeIntact(t *testing.T, what string, ts []tuple.Tuple, base int) {
	t.Helper()
	for i, tu := range ts {
		if tu.Int("v") != int64(base+i) {
			t.Fatalf("%s: block handed back while still pointed into; tuple %d reads %d", what, i, tu.Int("v"))
		}
	}
}

func mustBeRecycled(t *testing.T, what string, ts []tuple.Tuple) {
	t.Helper()
	if poisoning && (ts[0].Int("v") != poisonNum || ts[len(ts)-1].Int("v") != poisonNum) {
		t.Fatalf("%s: block not recycled; tuples read %d..%d", what, ts[0].Int("v"), ts[len(ts)-1].Int("v"))
	}
}

// forwarder submits every input tuple unchanged.
type forwarder struct {
	opapi.Base
	ctx opapi.Context
}

func (f *forwarder) Open(ctx opapi.Context) error { f.ctx = ctx; return nil }

func (f *forwarder) Process(port int, t tuple.Tuple) error { return f.ctx.Submit(0, t) }

func (f *forwarder) ProcessBatch(port int, b *tuple.Batch) error {
	for _, t := range b.Tuples() {
		if err := f.ctx.Submit(0, t); err != nil {
			return err
		}
	}
	return nil
}

// gatedSink announces its first chunk and holds it until released.
type gatedSink struct {
	opapi.Base
	entered, gate chan struct{}
	first         bool
}

func newGatedSink() *gatedSink {
	return &gatedSink{entered: make(chan struct{}), gate: make(chan struct{}), first: true}
}

func (g *gatedSink) Process(port int, t tuple.Tuple) error { return nil }

func (g *gatedSink) ProcessBatch(port int, b *tuple.Batch) error {
	if g.first {
		g.first = false
		close(g.entered)
		<-g.gate
	}
	return nil
}

// TestFanOutHoldsUntilBothDone: a forwarder whose output port feeds one
// fused consumer and one link hands the frame's block to both; the block
// comes back only when the slower of the two is done with it, whichever
// that is, for a single-item entry as for a batch.
func TestFanOutHoldsUntilBothDone(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		sinkFirst bool
	}{
		{"batch/sink-first", 16, true},
		{"batch/link-first", 16, false},
		{"single/sink-first", 1, true},
		{"single/link-first", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := newGatedSink()
			reg := opapi.NewRegistry()
			reg.Register("Fwd", func() opapi.Operator { return &forwarder{} })
			reg.Register("Gated", func() opapi.Operator { return sink })
			p, err := pe.New(pe.Config{
				ID: 1, Job: 1, App: "lease",
				Ops: []pe.OpSpec{
					{Name: "fwd", Kind: "Fwd", Inputs: []*tuple.Schema{intOnly}, Outputs: []*tuple.Schema{intOnly}},
					{Name: "sink", Kind: "Gated", Inputs: []*tuple.Schema{intOnly}},
				},
				Wires:    []pe.Wire{{FromOp: "fwd", ToOp: "sink"}},
				Registry: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			remoteIn, remoteGate := make(chan struct{}), make(chan struct{})
			delivered := 0
			link := NewLink(intOnly, func(b *pe.Batch) {
				if delivered == 0 {
					close(remoteIn)
					<-remoteGate
				}
				delivered += len(b.Items)
				pe.PutBatch(b)
			}, nil, nil, nil)
			if err := p.AddOutlet("fwd", 0, "l", link.SendRun); err != nil {
				t.Fatal(err)
			}
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			inlet, err := p.ExternalBatchInlet("fwd", 0)
			if err != nil {
				t.Fatal(err)
			}
			items, spy, _ := leasedItems(0, tc.n)
			b := pe.GetBatch()
			b.Items = append(b.Items, items...) // carries the birth hold
			inlet(b)
			wait.Within(t, "both consumers have the frame", func() { <-sink.entered; <-remoteIn })
			mustBeIntact(t, "frame held by the fused consumer and the link", spy, 0)
			if tc.sinkFirst {
				close(sink.gate)
				p.Stop()
				mustBeIntact(t, "frame still pending on the link", spy, 0)
				close(remoteGate)
				wait.Within(t, "link drains", link.Close)
			} else {
				close(remoteGate)
				wait.Within(t, "link drains", link.Flush)
				mustBeIntact(t, "frame still in the fused consumer's hands", spy, 0)
				close(sink.gate)
				p.Stop()
				link.Close()
			}
			mustBeRecycled(t, "frame both consumers are done with", spy)
			if delivered != tc.n {
				t.Fatalf("link delivered %d of %d", delivered, tc.n)
			}
		})
	}
}

// TestPendingHoldsDroppedByDiscardAndClose: what waits in a link's
// pending buffer is held; Discard drops those holds with the items,
// Close after delivering them, and the run being shipped stays held
// until its remote returns. A send on the dead link takes no hold.
func TestPendingHoldsDroppedByDiscardAndClose(t *testing.T) {
	for _, end := range []string{"discard", "close"} {
		t.Run(end, func(t *testing.T) {
			entered, gate := make(chan struct{}), make(chan struct{})
			delivered := 0
			link := NewLink(intOnly, func(b *pe.Batch) {
				if delivered == 0 {
					close(entered)
					<-gate
				}
				delivered += len(b.Items)
				pe.PutBatch(b)
			}, nil, nil, nil)

			shipping, spyShipping, leaseA := leasedItems(0, 4)
			link.SendRun(shipping)
			leaseA.Release() // the sender is done with its tuples once SendRun returns
			wait.Within(t, "first run reaches the remote", func() { <-entered })
			run, spyRun, leaseB := leasedItems(100, 4)
			link.SendRun(run[:2])
			link.SendRun(run[2:]) // same block, a second hold
			leaseB.Release()
			one, spyOne, leaseC := leasedItems(200, 1)
			link.Send(one[0])
			leaseC.Release()
			mustBeIntact(t, "run being shipped", spyShipping, 0)
			mustBeIntact(t, "pending run", spyRun, 100)
			mustBeIntact(t, "pending single item", spyOne, 200)

			want := 4
			if end == "discard" {
				link.Discard()
				mustBeRecycled(t, "discarded run", spyRun)
				mustBeRecycled(t, "discarded single item", spyOne)
				mustBeIntact(t, "run being shipped at the discard", spyShipping, 0)
				close(gate)
				wait.Within(t, "flusher exits", link.Close)
			} else {
				close(gate)
				wait.Within(t, "Close drains", link.Close)
				mustBeRecycled(t, "delivered run", spyRun)
				mustBeRecycled(t, "delivered single item", spyOne)
				want = 9
			}
			mustBeRecycled(t, "shipped run", spyShipping)
			if delivered != want {
				t.Fatalf("delivered %d items, want %d", delivered, want)
			}

			late, spyLate, leaseD := leasedItems(300, 3)
			link.SendRun(late)
			link.Send(late[0])
			leaseD.Release() // the only hold: over-release would panic, a hold kept would leave it intact
			mustBeRecycled(t, "run sent on a dead link", spyLate)
		})
	}
}

// TestRemoteReadingAfterPutBatchSeesPoison: a remote end that keeps a
// delivered batch's items past PutBatch reads, under the race detector,
// the poison of the recycled frame block; the copies it made first are
// good.
func TestRemoteReadingAfterPutBatchSeesPoison(t *testing.T) {
	var kept, copies []tuple.Tuple
	link := NewLink(schema, func(b *pe.Batch) {
		for _, it := range b.Items {
			kept = append(kept, it.T)
			copies = append(copies, it.T.Clone())
		}
		pe.PutBatch(b)
	}, nil, nil, nil)
	defer link.Close()
	for i := 0; i < 10; i++ {
		link.Send(pe.TupleItem(tuple.Build(schema).Int("v", int64(i)).Str("s", "payload").Done()))
	}
	link.Flush()
	if len(kept) != 10 {
		t.Fatalf("delivered %d tuples", len(kept))
	}
	for i := range kept {
		if copies[i].Int("v") != int64(i) || copies[i].String("s") != "payload" {
			t.Fatalf("copy %d reads %s", i, copies[i].Format())
		}
		if kept[i].Block() == nil {
			t.Fatalf("decoded tuple %d is not in a leased block", i)
		}
		if poisoning && (kept[i].Int("v") != poisonNum || kept[i].String("s") != poisonStr) {
			t.Fatalf("tuple %d kept past PutBatch reads %s, want the poison", i, kept[i].Format())
		}
	}
}
