package pe

import (
	"errors"
	"fmt"
	"testing"

	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

// The tests of the storage-ownership protocol spy on leased blocks by
// keeping tuple headers they have no right to keep. What such a header
// reads tells the block's fate: the values written (still held, or
// forgotten on a failure path), or — in a race build, which poisons a
// block on its last release — poisonNum. Without the poison a recycled
// block keeps its values until it is leased again, so "recycled by now"
// is asserted in race builds only and "not recycled yet" everywhere.
// The race detector also sees the spying itself: a header may only be
// read after something that orders the read behind the last release (a
// Stop, an exit notification), or the read is reported as the data race
// it is.
const poisonNum = -0xDEADB10C // tuple's race-build poison (tuple/block.go)

// poisoning reports whether this build poisons recycled blocks.
var poisoning = func() bool {
	ts, blk := tuple.Lease(intSchema, nil, 1)
	blk.Release()
	return ts[0].Int("v") == poisonNum
}()

// leasedBatch builds a batch of n leased int tuples v = base..base+n-1
// carrying the block's birth hold, the way a link delivers a decoded
// frame, and returns the headers too, for spying.
func leasedBatch(base, n int) (*Batch, []tuple.Tuple) {
	ts, _ := tuple.Lease(intSchema, nil, n)
	b := GetBatch()
	ref := intSchema.MustRef("v")
	for i, t := range ts {
		ref.SetInt(t, int64(base+i))
		b.Items = append(b.Items, TupleItem(t))
	}
	return b, ts
}

// intact reports whether the spied tuples still read v = base..
func intact(ts []tuple.Tuple, base int) bool {
	for i, t := range ts {
		if t.Int("v") != int64(base+i) {
			return false
		}
	}
	return true
}

func mustBeIntact(t *testing.T, what string, ts []tuple.Tuple, base int) {
	t.Helper()
	if !intact(ts, base) {
		t.Fatalf("%s: block handed back while still pointed into; first tuple reads %d", what, ts[0].Int("v"))
	}
}

// mustBeRecycled checks, in a race build, that the spied block was
// poisoned.
func mustBeRecycled(t *testing.T, what string, ts []tuple.Tuple) {
	t.Helper()
	if poisoning && (ts[0].Int("v") != poisonNum || ts[len(ts)-1].Int("v") != poisonNum) {
		t.Fatalf("%s: block not recycled; tuples read %d..%d", what, ts[0].Int("v"), ts[len(ts)-1].Int("v"))
	}
}

// keeper is a BatchOperator that deliberately breaks the retain rule: it
// keeps the tuples it was called with, beside honest clones.
type keeper struct {
	opapi.Base
	kept, clones []tuple.Tuple
	seen         []int64
}

func (k *keeper) Process(port int, t tuple.Tuple) error {
	k.kept = append(k.kept, t)
	k.clones = append(k.clones, t.Clone())
	k.seen = append(k.seen, t.Int("v"))
	return nil
}

func (k *keeper) ProcessBatch(port int, b *tuple.Batch) error {
	for _, t := range b.Tuples() {
		if err := k.Process(port, t); err != nil {
			return err
		}
	}
	return nil
}

// TestRetainingOperatorSeesPoison: an operator that keeps its input
// tuples without Clone reads, once the chunk is done and the frame's
// block has been recycled, the poison under the race detector; its
// clones, and the values it read during the call, are good. Two frames
// queued ahead of Start arrive as one chunk, and the first
// frame's batch must not be put back before that chunk has been
// processed — the operator would have read poison during the call.
func TestRetainingOperatorSeesPoison(t *testing.T) {
	k := &keeper{}
	reg := opapi.NewRegistry()
	reg.Register("Keeper", func() opapi.Operator { return k })
	p, err := New(Config{
		ID: 1, Job: 1, App: "lease", Host: "h1",
		Ops:      []OpSpec{{Name: "keep", Kind: "Keeper", Inputs: []*tuple.Schema{intSchema}}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	inlet, err := p.ExternalBatchInlet("keep", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Both frames are queued before the container starts, so one take
	// drains them together.
	a, spyA := leasedBatch(0, 10)
	b, spyB := leasedBatch(10, 10)
	inlet(a)
	inlet(b)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "both frames processed", func() bool { return peCounter(p, metrics.PETuplesProcessed) == 20 })
	p.Stop()
	mustBeRecycled(t, "first frame", spyA)
	mustBeRecycled(t, "second frame", spyB)
	for i := range k.seen {
		if k.seen[i] != int64(i) || k.clones[i].Int("v") != int64(i) {
			t.Fatalf("tuple %d: read %d during the call, clone reads %d", i, k.seen[i], k.clones[i].Int("v"))
		}
		if poisoning && k.kept[i].Int("v") != poisonNum {
			t.Fatalf("tuple %d kept without Clone reads %d, want the poison", i, k.kept[i].Int("v"))
		}
	}
	if len(k.seen) != 20 {
		t.Fatalf("keeper saw %d tuples, want 20", len(k.seen))
	}
}

// TestKillMidRunForgetsHolds: a kill while a chunk is in the operator's
// hands loses the rest of the run in hand and what is queued behind it,
// and must forget their holds rather than drop them. The chunk itself is
// held for as long as the operator reads it. A frame refused after the
// kill was never queued and is recycled at once.
func TestKillMidRunForgetsHolds(t *testing.T) {
	op := &gatedBatch{entered: make(chan struct{}), gate: make(chan struct{})}
	exitCh := make(chan exit, 1)
	reg := opapi.NewRegistry()
	reg.Register("Gated", func() opapi.Operator { return op })
	p, err := New(Config{
		ID: 1, Job: 1, App: "lease", Host: "h1",
		Ops:      []OpSpec{{Name: "g", Kind: "Gated", Inputs: []*tuple.Schema{intSchema}}},
		Registry: reg,
		OnExit:   func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} },
	})
	if err != nil {
		t.Fatal(err)
	}
	inlet, err := p.ExternalBatchInlet("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := p.ExternalInlet("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	inHand, spyHand := leasedBatch(0, maxChunk)
	sameRun, spySameRun := leasedBatch(100, 8)
	inlet(inHand)
	inlet(sameRun)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	wait.Within(t, "first chunk reaches the operator", func() { <-op.entered })
	queued, spyQueued := leasedBatch(200, 8)
	inlet(queued)
	one, lease := tuple.Lease(intSchema, nil, 1)
	intSchema.MustRef("v").SetInt(one[0], 300)
	single(TupleItem(one[0]))
	lease.Release() // the inbox entry has its own hold
	p.Kill("test kill")
	late, spyLate := leasedBatch(400, 4)
	wait.Within(t, "put on a dead container returns", func() { inlet(late) })
	mustBeRecycled(t, "refused frame", spyLate)
	mustBeIntact(t, "chunk in the operator's hands", spyHand, 0)
	close(op.gate)
	if e := waitExit(t, exitCh); !e.crashed {
		t.Fatalf("exit = %+v, want a crash", e)
	}
	mustBeIntact(t, "rest of the run in hand at the kill", spySameRun, 100)
	mustBeIntact(t, "frame queued behind the run in hand", spyQueued, 200)
	mustBeIntact(t, "single item queued behind the run in hand", one, 300)
}

// leasingFailer is a producer that fails half-way: it fills a leased
// output block, submits half of it and returns an error, dropping its
// birth hold on the way out as Functor does.
type leasingFailer struct {
	opapi.Base
	ctx  opapi.Context
	outs []tuple.Tuple
}

func (f *leasingFailer) Open(ctx opapi.Context) error { f.ctx = ctx; return nil }

func (f *leasingFailer) Process(port int, t tuple.Tuple) error { return errors.New("per-tuple path") }

func (f *leasingFailer) ProcessBatch(port int, b *tuple.Batch) error {
	outs, lease := tuple.Lease(f.ctx.OutputSchema(0), nil, b.Len())
	f.outs = outs // spied on by the test
	defer lease.Release()
	for i, in := range b.Tuples() {
		intSchema.MustRef("v").SetInt(outs[i], in.Int("v")+1000)
		if i == b.Len()/2 {
			return errors.New("half boom")
		}
		if err := f.ctx.Submit(0, outs[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestFailedChunkForgetsItsEmits: a failing ProcessBatch leaves emits in
// outBuf that are never forwarded. They point into the input frame (a
// forwarder's) or into the operator's own leased block (a producer's),
// and neither block may come back: the holds are forgotten.
func TestFailedChunkForgetsItsEmits(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   opapi.Operator
	}{
		{"forwarder", &halfEmitter{}},
		{"producer", &leasingFailer{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coll := &collector{}
			exitCh := make(chan exit, 1)
			reg := newTestRegistry(coll, 0)
			reg.Register("Half", func() opapi.Operator { return tc.op })
			p, err := New(Config{
				ID: 1, Job: 1, App: "lease", Host: "h1",
				Ops:      []OpSpec{midSpec("half", "Half"), sinkSpec("sink")},
				Wires:    []Wire{{"half", 0, "sink", 0}},
				Registry: reg,
				OnExit:   func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} },
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			inlet, err := p.ExternalBatchInlet("half", 0)
			if err != nil {
				t.Fatal(err)
			}
			in, spyIn := leasedBatch(0, 16)
			inlet(in)
			if e := waitExit(t, exitCh); !e.crashed {
				t.Fatalf("exit = %+v, want a crash", e)
			}
			mustBeIntact(t, "input frame of the failed chunk", spyIn, 0)
			if f, ok := tc.op.(*leasingFailer); ok {
				mustBeIntact(t, "output block of the failed chunk", f.outs[:8], 1000)
			}
			if got := len(coll.values()); got != 0 {
				t.Fatalf("sink received %d tuples of a failed chunk", got)
			}
		})
	}
}

// TestRetireReleasesQueuedEntries: a container killed before it was ever
// started releases what producers wired ahead of Start have queued —
// single items and batches alike — instead of leaving it to the inbox.
func TestRetireReleasesQueuedEntries(t *testing.T) {
	for _, end := range []string{"kill", "stop"} {
		t.Run(end, func(t *testing.T) {
			coll := &collector{}
			p, err := New(Config{
				ID: 1, Job: 1, App: "lease", Host: "h1",
				Ops:      []OpSpec{sinkSpec("sink")},
				Registry: newTestRegistry(coll, 0),
			})
			if err != nil {
				t.Fatal(err)
			}
			inlet, err := p.ExternalInlet("sink", 0)
			if err != nil {
				t.Fatal(err)
			}
			batchInlet, err := p.ExternalBatchInlet("sink", 0)
			if err != nil {
				t.Fatal(err)
			}
			b, spyBatch := leasedBatch(0, 8)
			batchInlet(b)
			one, lease := tuple.Lease(intSchema, nil, 1)
			intSchema.MustRef("v").SetInt(one[0], 50)
			inlet(TupleItem(one[0]))
			lease.Release()
			inlet(MarkItem(tuple.WindowMark))
			mustBeIntact(t, "queued frame", spyBatch, 0)
			mustBeIntact(t, "queued single item", one, 50)
			if end == "kill" {
				p.Kill("never started")
			} else {
				p.Stop()
			}
			mustBeRecycled(t, "queued frame", spyBatch)
			mustBeRecycled(t, "queued single item", one)
			if got := peCounter(p, metrics.PETuplesDropped); got != 9 {
				t.Fatalf("nTuplesDropped = %d, want 9", got)
			}
			if err := p.Start(); err == nil {
				t.Fatal("a retired container started")
			}
		})
	}
}

// TestRunHoldsCountRuns: a carrier holds a block once per consecutive
// run of its items, a run that continues the queue's last item taking
// none, and releaseRun over the whole queue drops exactly that — checked
// through the over-release panic.
func TestRunHoldsCountRuns(t *testing.T) {
	a, leaseA := tuple.Lease(intSchema, nil, 4)
	b, leaseB := tuple.Lease(intSchema, nil, 4)
	free := tuple.New(intSchema)
	var queue []Item
	add := func(items ...Item) {
		holdRun(queue, items)
		queue = append(queue, items...)
	}
	add(TupleItem(a[0]), TupleItem(a[1]))                            // one run of A
	add(TupleItem(a[2]))                                             // continues it: no hold
	add(TupleItem(b[0]), MarkItem(tuple.WindowMark))                 // B
	add(TupleItem(b[1]), TupleItem(free), TupleItem(a[3]))           // B again behind the mark, A again
	add(TupleItem(free), MarkItem(tuple.FinalMark), TupleItem(free)) // nothing to hold
	leaseA.Release()
	leaseB.Release() // the queue's holds remain: A twice, B twice
	releaseRun(queue)
	for name, blk := range map[string]*tuple.Block{"A": a[0].Block(), "B": b[0].Block()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("block %s still held after releaseRun dropped the queue's holds", name)
				}
			}()
			blk.Release()
		}()
	}
}

// TestHandOverKeepsEveryTuple: a fused Functor → Functor → sink chain
// fed leased 64-tuple runs delivers every seq once and in order while an
// outlet comes and goes on the first Functor's port, moving that port
// between handing its buffer over whole and copying it. Each attachment
// of the outlet sees a gapless stretch of the stream, and every block —
// the runs fed in and both Functors' outputs — is recycled at the end.
func TestHandOverKeepsEveryTuple(t *testing.T) {
	const runs, toggle, shift = 200, 5, 1000000
	k := &keeper{}
	reg := opapi.NewRegistry()
	reg.Register("Functor", func() opapi.Operator { op, _ := opapi.Default.New(ops.KindFunctor); return op })
	reg.Register("Keeper", func() opapi.Operator { return k })
	ints := []*tuple.Schema{intSchema}
	p, err := New(Config{
		ID: 1, Job: 1, App: "lease", Host: "h1", Registry: reg,
		Ops: []OpSpec{
			{Name: "f1", Kind: "Functor", Params: opapi.Params{"addInt": fmt.Sprint("v:", shift)}, Inputs: ints, Outputs: ints},
			{Name: "f2", Kind: "Functor", Params: opapi.Params{"addInt": fmt.Sprint("v:", -shift)}, Inputs: ints, Outputs: ints},
			{Name: "sink", Kind: "Keeper", Inputs: ints},
		},
		Wires: []Wire{{"f1", 0, "f2", 0}, {"f2", 0, "sink", 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inlet, err := p.ExternalBatchInlet("f1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	type tap struct {
		seen []int64
		kept []tuple.Tuple
	}
	var taps []*tap
	var spies [][]tuple.Tuple
	for r := 0; r < runs; r++ {
		if id := fmt.Sprint("tap", r/(2*toggle)); r%(2*toggle) == 0 {
			tp := &tap{}
			taps = append(taps, tp)
			if err := p.AddOutlet("f1", 0, id, func(run []Item) {
				for _, it := range run {
					tp.seen = append(tp.seen, it.T.Int("v")-shift)
					tp.kept = append(tp.kept, it.T)
				}
			}); err != nil {
				t.Fatal(err)
			}
		} else if r%(2*toggle) == toggle {
			if err := p.RemoveOutlet("f1", 0, id); err != nil {
				t.Fatal(err)
			}
		}
		b, spy := leasedBatch(r*maxChunk, maxChunk)
		spies = append(spies, spy)
		inlet(b)
	}
	const total = runs * maxChunk
	wait.For(t, "every tuple through the chain", func() bool { return peCounter(p, metrics.PETuplesProcessed) == 3*total })
	p.Stop()
	if len(k.seen) != total {
		t.Fatalf("sink saw %d tuples, want %d", len(k.seen), total)
	}
	for i, v := range k.seen {
		if v != int64(i) {
			t.Fatalf("sink tuple %d reads %d", i, v)
		}
	}
	tapped, last := 0, int64(-1)
	for n, tp := range taps {
		for i, v := range tp.seen {
			if v <= last || (i > 0 && v != tp.seen[i-1]+1) {
				t.Fatalf("attachment %d: tuple %d reads %d after %d", n, i, v, last)
			}
			last = v
		}
		tapped += len(tp.seen)
		spies = append(spies, tp.kept)
	}
	if tapped == 0 || tapped == total {
		t.Fatalf("the outlet saw %d of %d tuples: the run never took both paths", tapped, total)
	}
	if poisoning {
		for _, spy := range append(spies, k.kept) {
			for _, tp := range spy {
				if v := tp.Int("v"); v != poisonNum {
					t.Fatalf("a tuple's block was not recycled: it reads %d", v)
				}
			}
		}
	}
}
