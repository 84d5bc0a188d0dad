package pe

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// batchDoubler is a BatchOperator: ProcessBatch doubles whole runs,
// Process doubles singles. It records how each tuple arrived so tests
// can assert the delivery loop actually chose the batch path.
type batchDoubler struct {
	opapi.Base
	ctx opapi.Context

	mu         sync.Mutex
	batchCalls int
	tupleCalls int
	batchSizes []int
}

func (d *batchDoubler) Open(ctx opapi.Context) error { d.ctx = ctx; return nil }

func (d *batchDoubler) Process(port int, t tuple.Tuple) error {
	d.mu.Lock()
	d.tupleCalls++
	d.mu.Unlock()
	out := tuple.Build(d.ctx.OutputSchema(0)).Int("v", t.Int("v")*2).Done()
	return d.ctx.Submit(0, out)
}

func (d *batchDoubler) ProcessBatch(port int, b *tuple.Batch) error {
	d.mu.Lock()
	d.batchCalls++
	d.batchSizes = append(d.batchSizes, b.Len())
	d.mu.Unlock()
	ref := b.Schema().MustRef("v")
	out := tuple.NewBlock(d.ctx.OutputSchema(0), b.Len())
	for i, t := range b.Tuples() {
		ref.SetInt(out[i], ref.Int(t)*2)
		if err := d.ctx.Submit(0, out[i]); err != nil {
			return err
		}
	}
	return nil
}

func (d *batchDoubler) stats() (batches, tuples int, sizes []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.batchCalls, d.tupleCalls, append([]int(nil), d.batchSizes...)
}

// batchFailer fails the whole run once v reaches its trigger value.
type batchFailer struct {
	opapi.Base
	failAt int64
}

func (f *batchFailer) Process(port int, t tuple.Tuple) error {
	if t.Int("v") >= f.failAt {
		return errors.New("batch boom")
	}
	return nil
}

func (f *batchFailer) ProcessBatch(port int, b *tuple.Batch) error {
	ref := b.Schema().MustRef("v")
	for _, t := range b.Tuples() {
		if ref.Int(t) >= f.failAt {
			return errors.New("batch boom")
		}
	}
	return nil
}

// midFailer is per-tuple only: fails when it sees its trigger value.
type midFailer struct {
	opapi.Base
	failAt int64
}

func (f *midFailer) Process(port int, t tuple.Tuple) error {
	if t.Int("v") >= f.failAt {
		return errors.New("mid boom")
	}
	return nil
}

// intBatch builds a batch of n int tuples (v = 0..n-1) sharing one block.
func intBatch(n int) *Batch {
	b := GetBatch()
	block := tuple.NewBlock(intSchema, n)
	ref := intSchema.MustRef("v")
	for i := 0; i < n; i++ {
		ref.SetInt(block[i], int64(i))
		b.Items = append(b.Items, TupleItem(block[i]))
	}
	return b
}

// feedInts pushes one batch of n int tuples (v = 0..n-1) through the
// operator's external batch inlet, followed by nothing — the test owns
// when (and whether) a final mark arrives.
func feedInts(t *testing.T, p *PE, op string, n int) {
	t.Helper()
	inlet, err := p.ExternalBatchInlet(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	inlet(intBatch(n))
}

func peCounter(p *PE, name string) int64 {
	c, ok := p.PEMetrics().Lookup(name)
	if !ok {
		return -1
	}
	return c.Value()
}

// TestItemIs40Bytes pins the carrier element: a 32-byte tuple header
// and the mark, padded. Every queue on a hop copies it per tuple
// (ARCHITECTURE.md, "Tuple storage ownership", counts the bytes).
func TestItemIs40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Item{}); n != 40 {
		t.Fatalf("unsafe.Sizeof(Item{}) = %d, want 40", n)
	}
}

// TestBatchDelivery: a frame-sized batch reaches a BatchOperator as one
// ProcessBatch call, its outputs stay correct, and the coalesced
// intra-PE hop delivers the downstream sink a whole batch too.
func TestBatchDelivery(t *testing.T) {
	coll := &collector{}
	dbl := &batchDoubler{}
	reg := newTestRegistry(coll, 0)
	reg.Register("BatchDoubler", func() opapi.Operator { return dbl })
	p, err := New(Config{
		ID: 1, Job: 1, App: "batch", Host: "h1",
		Ops:      []OpSpec{midSpec("dbl", "BatchDoubler"), sinkSpec("sink")},
		Wires:    []Wire{{"dbl", 0, "sink", 0}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	feedInts(t, p, "dbl", 16)
	waitCond(t, "all tuples at sink", func() bool { return len(coll.values()) == 16 })
	for i, v := range coll.values() {
		if v != int64(i*2) {
			t.Fatalf("sink[%d] = %d, want %d", i, v, i*2)
		}
	}
	batches, tuples, sizes := dbl.stats()
	if batches != 1 || tuples != 0 {
		t.Fatalf("delivery split: %d ProcessBatch / %d Process calls (sizes %v), want 1/0", batches, tuples, sizes)
	}
	if sizes[0] != 16 {
		t.Fatalf("ProcessBatch saw %d tuples, want 16", sizes[0])
	}
	if got := peCounter(p, metrics.PETuplesProcessed); got != 32 {
		t.Fatalf("nTuplesProcessed = %d, want 32 (16 at dbl + 16 at sink)", got)
	}
	if got := peCounter(p, metrics.PETuplesDropped); got != 0 {
		t.Fatalf("nTuplesDropped = %d on the clean path", got)
	}
}

// TestBatchDeliveryMarksInterleave: marks inside a batch flow through
// the per-item path in position, splitting the tuple runs around them.
func TestBatchDeliveryMarksInterleave(t *testing.T) {
	coll := &collector{}
	dbl := &batchDoubler{}
	reg := newTestRegistry(coll, 0)
	reg.Register("BatchDoubler", func() opapi.Operator { return dbl })
	p, err := New(Config{
		ID: 1, Job: 1, App: "batch", Host: "h1",
		Ops:      []OpSpec{midSpec("dbl", "BatchDoubler"), sinkSpec("sink")},
		Wires:    []Wire{{"dbl", 0, "sink", 0}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	inlet, err := p.ExternalBatchInlet("dbl", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := intSchema.MustRef("v")
	block := tuple.NewBlock(intSchema, 6)
	for i := range block {
		ref.SetInt(block[i], int64(i))
	}
	b := GetBatch()
	for i := 0; i < 4; i++ {
		b.Items = append(b.Items, TupleItem(block[i]))
	}
	b.Items = append(b.Items, MarkItem(tuple.FinalMark))
	// Items after the final mark on the only input port are not
	// delivered: the operator has finalised. Only the 4 leading tuples
	// count.
	b.Items = append(b.Items, TupleItem(block[4]), TupleItem(block[5]))
	inlet(b)

	waitCond(t, "final at sink", func() bool {
		coll.mu.Lock()
		defer coll.mu.Unlock()
		return coll.finals == 1
	})
	if got := coll.values(); len(got) != 4 {
		t.Fatalf("sink got %v, want the 4 pre-mark tuples", got)
	}
	batches, _, sizes := dbl.stats()
	if batches != 1 || sizes[0] != 4 {
		t.Fatalf("runs = %d sizes = %v, want one run of 4", batches, sizes)
	}
	// The post-final remainder was cleanly finalised away, not "lost":
	// the drop counter stays untouched.
	if got := peCounter(p, metrics.PETuplesDropped); got != 0 {
		t.Fatalf("nTuplesDropped = %d after clean finalisation", got)
	}
}

// TestPartialBatchLossPerTuple pins the loss contract for an operator
// without ProcessBatch, whose run is unrolled into Process calls: the
// run is still the unit of failure. A mid-run Process failure crashes
// the PE, none of the run counts as processed, and the run plus
// everything queued behind it is counted on nTuplesDropped and journalled
// instead of vanishing silently.
func TestPartialBatchLossPerTuple(t *testing.T) {
	ring := journal.New(nil)
	reg := opapi.NewRegistry()
	reg.Register("MidFailer", func() opapi.Operator { return &midFailer{failAt: 5} })
	exitCh := make(chan exit, 1)
	p, err := New(Config{
		ID: 1, Job: 1, App: "batch", Host: "h1",
		Ops:      []OpSpec{{Name: "fail", Kind: "MidFailer", Inputs: []*tuple.Schema{intSchema}}},
		Registry: reg,
		OnExit:   func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} },
		Journal:  ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	feedInts(t, p, "fail", 16) // the run fails at v=5 and is lost whole
	e := waitExit(t, exitCh)
	if !e.crashed || !strings.Contains(e.reason, "mid boom") {
		t.Fatalf("exit = %+v, want crash on mid boom", e)
	}
	if got := peCounter(p, metrics.PETuplesDropped); got != 16 {
		t.Fatalf("nTuplesDropped = %d, want the full 16-tuple run", got)
	}
	if got := peCounter(p, metrics.PETuplesProcessed); got != 0 {
		t.Fatalf("nTuplesProcessed = %d, want 0 (the failed run is not processed)", got)
	}
	for _, e := range ring.Events() {
		if e.Action == "drop-run" && e.Target == "fail" && strings.Contains(e.Note, "dropped 16 undelivered tuple(s)") {
			return
		}
	}
	t.Fatalf("no batch-loss journal event; got %+v", ring.Events())
}

// TestPartialBatchLossBatchPath pins the same contract for a
// BatchOperator: a failing ProcessBatch call crashes the PE, the failing
// run's tuples are not reported processed, and the run plus what was
// queued behind it lands on nTuplesDropped — batch entries weighed by
// their tuples. Everything is queued before Start so that the consume
// loop drains it in one swap: an 80-tuple batch, a single tuple and an
// 8-tuple batch make one 64-tuple run that succeeds and one 25-tuple
// run (v=70 inside) that fails.
func TestPartialBatchLossBatchPath(t *testing.T) {
	reg := opapi.NewRegistry()
	reg.Register("BatchFailer", func() opapi.Operator { return &batchFailer{failAt: 70} })
	exitCh := make(chan exit, 1)
	p, err := New(Config{
		ID: 1, Job: 1, App: "batch", Host: "h1",
		Ops:      []OpSpec{{Name: "fail", Kind: "BatchFailer", Inputs: []*tuple.Schema{intSchema}}},
		Registry: reg,
		OnExit:   func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} },
	})
	if err != nil {
		t.Fatal(err)
	}
	feedInts(t, p, "fail", 80)
	single, err := p.ExternalInlet("fail", 0)
	if err != nil {
		t.Fatal(err)
	}
	single(TupleItem(tuple.Build(intSchema).Int("v", 0).Done()))
	feedInts(t, p, "fail", 8)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	e := waitExit(t, exitCh)
	if !e.crashed || !strings.Contains(e.reason, "batch boom") {
		t.Fatalf("exit = %+v, want crash on batch boom", e)
	}
	if got := peCounter(p, metrics.PETuplesDropped); got != 25 {
		t.Fatalf("nTuplesDropped = %d, want 25: the failed run (16 + 1 + 8)", got)
	}
	if got := peCounter(p, metrics.PETuplesProcessed); got != 64 {
		t.Fatalf("nTuplesProcessed = %d, want 64 (the failed run is not processed)", got)
	}
}

// TestFailedBatchOutputsDropped: outputs an operator submitted before
// its ProcessBatch call failed are discarded, not forwarded — a restart
// replays upstream of the failure, and forwarding partial effects would
// double-deliver them.
func TestFailedBatchOutputsDropped(t *testing.T) {
	coll := &collector{}
	reg := newTestRegistry(coll, 0)
	reg.Register("HalfEmit", func() opapi.Operator { return &halfEmitter{} })
	exitCh := make(chan exit, 1)
	p, err := New(Config{
		ID: 1, Job: 1, App: "batch", Host: "h1",
		Ops:      []OpSpec{midSpec("half", "HalfEmit"), sinkSpec("sink")},
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

	feedInts(t, p, "half", 8)
	e := waitExit(t, exitCh)
	if !e.crashed {
		t.Fatalf("exit = %+v, want crash", e)
	}
	if got := coll.values(); len(got) != 0 {
		t.Fatalf("sink received %v from a failed batch call", got)
	}
	if got := peCounter(p, metrics.PETuplesSubmitted); got != 0 {
		t.Fatalf("nTuplesSubmitted = %d, want 0 — a failed batch must not count its buffered outputs", got)
	}
}

// halfEmitter submits half the batch downstream, then fails the call.
type halfEmitter struct {
	opapi.Base
	ctx opapi.Context
}

func (h *halfEmitter) Open(ctx opapi.Context) error { h.ctx = ctx; return nil }

func (h *halfEmitter) Process(port int, t tuple.Tuple) error { return h.ctx.Submit(0, t) }

func (h *halfEmitter) ProcessBatch(port int, b *tuple.Batch) error {
	for i, t := range b.Tuples() {
		if i == b.Len()/2 {
			return errors.New("half boom")
		}
		if err := h.ctx.Submit(0, t); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkBatchDelivery measures the steady-state batch hot path: one
// frame-sized batch through a BatchOperator into a counting sink, via
// the same inlet the transport uses. The run must be allocation-free
// per tuple — the reusable view, coalescing buffers, and the pooled
// pe.Batch make the only per-frame cost the output block.
func BenchmarkBatchDelivery(b *testing.B) {
	coll := &collector{}
	dbl := &batchDoubler{}
	reg := newTestRegistry(coll, 0)
	reg.Register("BatchDoubler", func() opapi.Operator { return dbl })
	p, err := New(Config{
		ID: 1, Job: 1, App: "bench", Host: "h1",
		Ops:      []OpSpec{{Name: "dbl", Kind: "BatchDoubler", Inputs: []*tuple.Schema{intSchema}, Outputs: []*tuple.Schema{intSchema}}},
		Registry: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Start(); err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	inlet, err := p.ExternalBatchInlet("dbl", 0)
	if err != nil {
		b.Fatal(err)
	}

	const frame = 64
	block := tuple.NewBlock(intSchema, frame)
	ref := intSchema.MustRef("v")
	for i := range block {
		ref.SetInt(block[i], int64(i))
	}
	rt := p.byName["dbl"]
	b.ReportAllocs()
	b.ResetTimer()
	sent := int64(0)
	for i := 0; i < b.N; i += frame {
		nb := GetBatch()
		for j := 0; j < frame; j++ {
			nb.Items = append(nb.Items, TupleItem(block[j]))
		}
		inlet(nb)
		sent += frame
		// Stay just ahead of the consumer rather than queueing b.N
		// tuples: the queue would otherwise absorb the whole run and
		// measure enqueue cost only.
		for rt.cProcessed.Value() < sent-4*frame {
			runtime.Gosched()
		}
	}
	for rt.cProcessed.Value() < sent {
		runtime.Gosched()
	}
	b.StopTimer()
}
