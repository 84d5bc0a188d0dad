package pe

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"streamorca/internal/ckpt"
	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// recorder is a controllable BatchOperator that writes down, in order,
// everything the consume loop calls it with.
type recorder struct {
	opapi.Base
	mu  sync.Mutex
	log []string
}

func (r *recorder) note(s string) {
	r.mu.Lock()
	r.log = append(r.log, s)
	r.mu.Unlock()
}

func (r *recorder) Process(port int, t tuple.Tuple) error {
	r.note(fmt.Sprintf("tuple p%d %d", port, t.Int("v")))
	return nil
}

func (r *recorder) ProcessBatch(port int, b *tuple.Batch) error {
	var vs []int64
	for _, t := range b.Tuples() {
		vs = append(vs, t.Int("v"))
	}
	r.note(fmt.Sprintf("run p%d %v", port, vs))
	return nil
}

func (r *recorder) ProcessMark(port int, m tuple.Mark) error {
	r.note(fmt.Sprintf("mark p%d", port))
	return nil
}

func (r *recorder) Control(cmd string, args map[string]string) error {
	r.note("control " + cmd)
	return nil
}

func (r *recorder) entries() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

// gatedBatch is a BatchOperator whose first ProcessBatch call announces
// itself and then waits to be released.
type gatedBatch struct {
	opapi.Base
	entered chan struct{}
	gate    chan struct{}
	mu      sync.Mutex
	sizes   []int
}

func (g *gatedBatch) Process(port int, t tuple.Tuple) error { return nil }

func (g *gatedBatch) ProcessBatch(port int, b *tuple.Batch) error {
	g.mu.Lock()
	g.sizes = append(g.sizes, b.Len())
	first := len(g.sizes) == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.gate
	}
	return nil
}

// TestSaturatedSourceFeedsRuns: a source submits tuple by tuple, yet its
// fused BatchOperator consumer, once it falls behind, receives runs —
// whatever the inbox held at each swap, cut to at most maxChunk.
func TestSaturatedSourceFeedsRuns(t *testing.T) {
	const n = 20000
	coll := &collector{}
	dbl := &batchDoubler{}
	reg := newTestRegistry(coll, n)
	reg.Register("BatchDoubler", func() opapi.Operator { return dbl })
	p, err := New(Config{
		ID: 1, Job: 1, App: "run", Host: "h1",
		Ops:      []OpSpec{srcSpec("src"), midSpec("dbl", "BatchDoubler"), sinkSpec("sink")},
		Wires:    []Wire{{"src", 0, "dbl", 0}, {"dbl", 0, "sink", 0}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	waitCond(t, "final at sink", func() bool {
		coll.mu.Lock()
		defer coll.mu.Unlock()
		return coll.finals == 1
	})
	for i, v := range coll.values() {
		if v != int64(2*i) {
			t.Fatalf("sink[%d] = %d, want %d", i, v, 2*i)
		}
	}
	_, tuples, sizes := dbl.stats()
	if tuples != 0 {
		t.Fatalf("%d Process calls on a BatchOperator", tuples)
	}
	total, longest := 0, 0
	for _, s := range sizes {
		total += s
		longest = max(longest, s)
	}
	if total != n || longest < 2 || longest > maxChunk {
		t.Fatalf("%d tuples in %d runs, longest %d; want %d tuples, longest in [2, %d]", total, len(sizes), longest, n, maxChunk)
	}
	if got := peCounter(p, metrics.PETuplesDropped); got != 0 {
		t.Fatalf("nTuplesDropped = %d on the clean path", got)
	}
}

// TestRunSplitsInPosition: a mark, a control message and a sync message
// each end the run before them and are handled in position; tuples of
// two input ports never share a run. Everything is queued before Start,
// so the consume loop sees it as one drained inbox.
func TestRunSplitsInPosition(t *testing.T) {
	rec := &recorder{}
	reg := opapi.NewRegistry()
	reg.Register("Recorder", func() opapi.Operator { return rec })
	p, err := New(Config{
		ID: 1, Job: 1, App: "run", Host: "h1",
		Ops:      []OpSpec{{Name: "rec", Kind: "Recorder", Inputs: []*tuple.Schema{intSchema, intSchema}}},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var in [2]func(Item)
	for port := range in {
		if in[port], err = p.ExternalInlet("rec", port); err != nil {
			t.Fatal(err)
		}
	}
	rt := p.byName["rec"]
	synced := make(chan error, 1)
	in[0](intItem(1))
	in[0](intItem(2))
	in[0](MarkItem(tuple.WindowMark))
	in[0](intItem(3))
	ctlErr := make(chan error, 1)
	go func() { ctlErr <- p.Control("rec", "poke", nil) }()
	waitCond(t, "control message queued", func() bool { return pendingLen(rt) == 5 })
	in[0](intItem(4))
	rt.in.put(&queued{sync: &syncMsg{fn: func() error { rec.note("sync"); return nil }, done: synced}}, 0)
	in[0](intItem(5))
	in[1](intItem(6))
	in[1](intItem(7))
	in[0](intItem(8))
	in[0](MarkItem(tuple.FinalMark))
	in[1](MarkItem(tuple.FinalMark))
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	waitCond(t, "operator finalised", func() bool { return rt.finalised.Load() })
	want := []string{
		"run p0 [1 2]", "mark p0", "run p0 [3]", "control poke", "run p0 [4]", "sync",
		"run p0 [5]", "run p1 [6 7]", "run p0 [8]", "mark p0", "mark p1",
	}
	if got := rec.entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order:\n got %q\nwant %q", got, want)
	}
	within(t, "control and sync calls answered", func() {
		if err := <-ctlErr; err != nil {
			t.Errorf("control: %v", err)
		}
		if err := <-synced; err != nil {
			t.Errorf("sync: %v", err)
		}
	})
}

// pendingLen returns how many entries wait in the operator's inbox.
func pendingLen(rt *opRuntime) int {
	rt.in.mu.Lock()
	defer rt.in.mu.Unlock()
	return len(rt.in.pending)
}

// TestKillObservedWithinOneRun: a drained inbox can hold a whole queue,
// so the consume loop re-checks the container between runs — a Kill that
// lands during the first of four 64-tuple runs stops the other three,
// which are accounted as dropped.
func TestKillObservedWithinOneRun(t *testing.T) {
	op := &gatedBatch{entered: make(chan struct{}), gate: make(chan struct{})}
	reg := opapi.NewRegistry()
	reg.Register("Gated", func() opapi.Operator { return op })
	exitCh := make(chan exit, 1)
	p, err := New(Config{
		ID: 1, Job: 1, App: "run", Host: "h1",
		Ops:      []OpSpec{{Name: "g", Kind: "Gated", Inputs: []*tuple.Schema{intSchema}}},
		Registry: reg,
		OnExit:   func(id ids.PEID, crashed bool, reason string) { exitCh <- exit{id, crashed, reason} },
	})
	if err != nil {
		t.Fatal(err)
	}
	inlet, err := p.ExternalInlet("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*maxChunk; i++ { // exactly the default QueueCap: no put blocks
		inlet(intItem(int64(i)))
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	within(t, "first run reaches the operator", func() { <-op.entered })
	p.Kill("test kill")
	close(op.gate)
	if e := waitExit(t, exitCh); !e.crashed {
		t.Fatalf("exit = %+v, want a crash", e)
	}
	op.mu.Lock()
	sizes := append([]int(nil), op.sizes...)
	op.mu.Unlock()
	if !reflect.DeepEqual(sizes, []int{maxChunk}) {
		t.Fatalf("runs delivered = %v, want only the one in flight at the kill", sizes)
	}
	if got := peCounter(p, metrics.PETuplesProcessed); got != maxChunk {
		t.Fatalf("nTuplesProcessed = %d, want %d", got, maxChunk)
	}
	if got := peCounter(p, metrics.PETuplesDropped); got != 3*maxChunk {
		t.Fatalf("nTuplesDropped = %d, want the %d behind the run in flight", got, 3*maxChunk)
	}
}

// TestRefusedPutCountsDrop: tuples offered to an operator that has
// finalised, or to a dead container, are refused at once — never parked
// on a queue nobody drains — and counted, batch entries by their tuples.
func TestRefusedPutCountsDrop(t *testing.T) {
	coll := &collector{}
	p, err := New(Config{
		ID: 1, Job: 1, App: "run", Host: "h1",
		Ops:      []OpSpec{sinkSpec("sink")},
		Registry: newTestRegistry(coll, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
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
	inlet(MarkItem(tuple.FinalMark))
	waitCond(t, "sink finalised", func() bool { return p.byName["sink"].finalised.Load() })
	within(t, "puts on a finalised operator return", func() {
		for i := 0; i < 300; i++ { // more than QueueCap
			inlet(intItem(int64(i)))
		}
		batchInlet(intBatch(8))
		inlet(MarkItem(tuple.WindowMark))
	})
	if got := peCounter(p, metrics.PETuplesDropped); got != 308 {
		t.Fatalf("nTuplesDropped = %d after finalisation, want 308", got)
	}
	p.Kill("test kill")
	within(t, "puts on a dead container return", func() { batchInlet(intBatch(5)) })
	if got := peCounter(p, metrics.PETuplesDropped); got != 313 {
		t.Fatalf("nTuplesDropped = %d after the kill, want 313", got)
	}
	if got := len(coll.values()); got != 0 {
		t.Fatalf("sink processed %d refused tuples", got)
	}
}

// gatedAcc is an accumulator whose first Process call announces itself
// and then waits to be released.
type gatedAcc struct {
	accumulator
	once    sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedAcc) Process(port int, t tuple.Tuple) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	return g.accumulator.Process(port, t)
}

// TestCaptureQueuedBehindTuples: a checkpoint requested while tuples
// wait in the inbox is captured on the consume goroutine after them —
// the snapshot holds their sum — and a checkpoint requested after the
// loop has exited falls back to the quiescent path.
func TestCaptureQueuedBehindTuples(t *testing.T) {
	store := ckpt.NewMemStore()
	acc := &gatedAcc{entered: make(chan struct{}), gate: make(chan struct{})}
	reg := opapi.NewRegistry()
	reg.Register("Acc", func() opapi.Operator { return acc })
	p, err := New(Config{
		ID: 7, Job: 1, App: "run", Host: "h1",
		Ops:      []OpSpec{accSpec("acc")},
		Registry: reg,
		Ckpt:     CkptConfig{Store: store, Key: "behind"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	inlet, err := p.ExternalInlet("acc", 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := p.byName["acc"]
	inlet(intItem(1))
	within(t, "first tuple reaches the operator", func() { <-acc.entered })
	for v := int64(2); v <= 10; v++ {
		inlet(intItem(v))
	}
	ckptErr := make(chan error, 1)
	go func() { _, err := p.Checkpoint(); ckptErr <- err }()
	waitCond(t, "capture message queued", func() bool { return pendingLen(rt) == 10 })
	close(acc.gate)
	within(t, "checkpoint completes", func() {
		if err := <-ckptErr; err != nil {
			t.Error(err)
		}
	})
	if got := snapshotSum(t, store, "behind"); got != 55 {
		t.Fatalf("snapshot sum = %d, want 55: the capture ran ahead of queued tuples", got)
	}

	inlet(intItem(45))
	inlet(MarkItem(tuple.FinalMark))
	within(t, "consume loop exits", func() { <-rt.loopDone })
	if _, err := p.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after loop exit: %v", err)
	}
	if got := snapshotSum(t, store, "behind"); got != 100 {
		t.Fatalf("quiescent snapshot sum = %d, want 100", got)
	}
}

// snapshotSum decodes the accumulator section of a stored snapshot.
func snapshotSum(t *testing.T, store ckpt.Store, key string) int64 {
	t.Helper()
	data, ok, err := store.Load(key)
	if err != nil || !ok {
		t.Fatalf("load %s: ok=%v err=%v", key, ok, err)
	}
	snap, err := ckpt.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range snap.Sections() {
		if sec.Name == "acc" {
			d := sec.Decoder()
			return d.Int()
		}
	}
	t.Fatal("acc section missing")
	return 0
}
