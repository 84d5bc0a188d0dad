package load

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamorca/internal/opapi"
	"streamorca/internal/pe"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

var seqRef = driverSchema.MustRef("seq")

// parked reports whether done stays open for a little while — evidence
// that the goroutine which closes it is parked.
func parked(done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	case <-time.After(30 * time.Millisecond):
		return true
	}
}

// takeN takes runs until n tuples have arrived and returns them in
// order. Test goroutine only: it fails the test at the deadline.
func takeN(t *testing.T, in *Injector, n int) []int64 {
	t.Helper()
	var got []int64
	stop := make(chan struct{})
	timer := time.AfterFunc(wait.Deadline, func() { close(stop) })
	defer timer.Stop()
	for len(got) < n {
		run, ok := in.take(nil, stop)
		if !ok {
			t.Fatalf("took %d of %d tuples before the deadline", len(got), n)
		}
		for _, tp := range run {
			got = append(got, seqRef.Int(tp))
		}
	}
	return got
}

func pendingLen(in *Injector) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.pending)
}

// TestInjectorPerPusherFIFO: with many concurrent pushers, the tuples of
// each come out in the order it pushed them, however the takes cut the
// stream.
func TestInjectorPerPusherFIFO(t *testing.T) {
	const pushers, each = 8, 2000
	in := newInjector()
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int64) {
			defer wg.Done()
			for i := int64(0); i < each; i++ {
				if !in.Push(makeSeq(p*each+i), nil) {
					t.Errorf("pusher %d: push %d refused", p, i)
					return
				}
			}
		}(int64(p))
	}
	next := make([]int64, pushers)
	for _, v := range takeN(t, in, pushers*each) {
		p, i := v/each, v%each
		if i != next[p] {
			t.Fatalf("pusher %d: got its tuple %d, want %d", p, i, next[p])
		}
		next[p]++
	}
	wait.Within(t, "pushers return", wg.Wait)
}

// TestInjectorBlocksAtCap: injectorCap pushes go through without a
// taker, the next one parks, and one take — which hands over exactly
// injectorCap — lets it in.
func TestInjectorBlocksAtCap(t *testing.T) {
	in := newInjector()
	wait.Within(t, "injectorCap pushes without a taker", func() {
		for i := int64(0); i < injectorCap; i++ {
			in.Push(makeSeq(i), nil)
		}
	})
	done := make(chan struct{})
	go func() { defer close(done); in.Push(makeSeq(injectorCap), nil) }()
	if !parked(done) {
		t.Fatalf("push %d did not block", injectorCap+1)
	}
	if got := takeN(t, in, injectorCap); int64(len(got)) != injectorCap || got[injectorCap-1] != injectorCap-1 {
		t.Fatalf("first take handed over %d tuples ending in %d", len(got), got[len(got)-1])
	}
	wait.Within(t, "parked push resumes after the take", func() { <-done })
	if got := takeN(t, in, 1); got[0] != injectorCap {
		t.Fatalf("resumed push delivered %d", got[0])
	}
}

// TestInjectorReleasesEveryParkedPusher: pushers parked on a full
// buffer are all released by takes — a take leaves one token, and each
// pusher it wakes passes it on. Repeated so that every interleaving of
// wake-up and re-fill gets its turn on 1, 2 and 8 procs.
func TestInjectorReleasesEveryParkedPusher(t *testing.T) {
	const pushers = 8
	in := newInjector()
	for round := 0; round < 50; round++ {
		for i := int64(0); i < injectorCap; i++ {
			in.Push(makeSeq(i), nil)
		}
		var wg sync.WaitGroup
		for p := 0; p < pushers; p++ {
			wg.Add(1)
			go func(p int64) {
				defer wg.Done()
				in.Push(makeSeq(injectorCap+p), nil)
			}(int64(p))
		}
		if round == 0 {
			// A parked pusher leaves no trace in the injector, so the
			// first round sleeps to let all of them park; the later
			// rounds race the takes on purpose.
			time.Sleep(10 * time.Millisecond)
		}
		takeN(t, in, injectorCap+pushers)
		wait.Within(t, fmt.Sprintf("round %d: all %d pushers return", round, pushers), wg.Wait)
		if n := pendingLen(in); n != 0 {
			t.Fatalf("round %d: %d tuples left pending", round, n)
		}
	}
}

// TestInjectorStopWhileParked: a push parked on a full buffer returns
// false when its stop closes, and its tuple was never queued.
func TestInjectorStopWhileParked(t *testing.T) {
	in := newInjector()
	for i := int64(0); i < injectorCap; i++ {
		in.Push(makeSeq(i), nil)
	}
	stop := make(chan struct{})
	res := make(chan bool, 1)
	done := make(chan struct{})
	go func() { defer close(done); res <- in.Push(makeSeq(-1), stop) }()
	if !parked(done) {
		t.Fatal("push on a full buffer did not block")
	}
	close(stop)
	wait.Within(t, "stopped push returns", func() { <-done })
	if <-res {
		t.Fatal("stopped push reported true")
	}
	for _, v := range takeN(t, in, injectorCap) {
		if v < 0 {
			t.Fatal("the stopped push's tuple was queued")
		}
	}
	if n := pendingLen(in); n != 0 {
		t.Fatalf("%d tuples pending after the take", n)
	}
}

// TestInjectorClose: Close is idempotent; a closed injector hands over
// what is pending, then reports end-of-stream, and refuses later pushes.
func TestInjectorClose(t *testing.T) {
	in := newInjector()
	for i := int64(0); i < 3; i++ {
		in.Push(makeSeq(i), nil)
	}
	in.Close()
	in.Close()
	if got := takeN(t, in, 3); got[0] != 0 || got[2] != 2 {
		t.Fatalf("closed injector handed over %v", got)
	}
	wait.Within(t, "end of stream", func() {
		if run, ok := in.take(nil, nil); ok {
			t.Errorf("closed and drained injector yielded %d tuples", len(run))
		}
	})
	if in.Push(makeSeq(9), nil) {
		t.Fatal("push after Close accepted")
	}
}

// countSink counts tuples and remembers the last seq it saw.
type countSink struct {
	opapi.Base
	n    atomic.Int64
	last atomic.Int64
}

func (s *countSink) Process(port int, t tuple.Tuple) error {
	s.last.Store(seqRef.Int(t))
	s.n.Add(1)
	return nil
}

func (s *countSink) ProcessBatch(port int, b *tuple.Batch) error {
	ts := b.Tuples()
	s.last.Store(seqRef.Int(ts[len(ts)-1]))
	s.n.Add(int64(len(ts)))
	return nil
}

func (s *countSink) await(t testing.TB, n int64) {
	t.Helper()
	if !wait.Until(wait.Deadline, 50*time.Microsecond, func() bool { return s.n.Load() >= n }) {
		t.Fatalf("sink has %d of %d tuples at the deadline", s.n.Load(), n)
	}
}

// ingestPE starts a one-PE job: a LoadSource on the named injector of
// objs fused to sink.
func ingestPE(t testing.TB, objs *opapi.Objects, injectorID string, sink *countSink) *pe.PE {
	t.Helper()
	reg := opapi.NewRegistry()
	reg.Register(KindLoadSource, func() opapi.Operator { return &loadSource{} })
	reg.Register("CountSink", func() opapi.Operator { return sink })
	schemas := []*tuple.Schema{driverSchema}
	p, err := pe.New(pe.Config{
		ID: 1, Job: 1, App: "ingest", Host: "h1", Registry: reg, Objects: objs,
		Ops: []pe.OpSpec{
			{Name: "src", Kind: KindLoadSource, Params: opapi.Params{"injectorId": injectorID}, Outputs: schemas},
			{Name: "sink", Kind: "CountSink", Inputs: schemas},
		},
		Wires: []pe.Wire{{FromOp: "src", FromPort: 0, ToOp: "sink", ToPort: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadSourceReattachesAfterKill: the injector outlives its source's
// PE — tuples pushed while no source runs wait in it, and the restarted
// source delivers them, in order, behind what the first one delivered.
func TestLoadSourceReattachesAfterKill(t *testing.T) {
	objs := opapi.NewObjects()
	in := InjectorIn(objs, "reattach")
	sink := &countSink{}
	first := ingestPE(t, objs, "reattach", sink)
	for i := int64(0); i < 100; i++ {
		in.Push(makeSeq(i), nil)
	}
	sink.await(t, 100)
	first.Kill("test kill")
	wait.Within(t, "pushes with no source running", func() {
		for i := int64(100); i < 150; i++ {
			in.Push(makeSeq(i), nil)
		}
	})
	second := ingestPE(t, objs, "reattach", sink)
	defer second.Stop()
	sink.await(t, 150)
	if got := sink.last.Load(); got != 149 {
		t.Fatalf("last tuple delivered = %d, want 149", got)
	}
}

// BenchmarkIngestHandoff measures the path in front of the first
// operator: one goroutine pushes pre-built tuples, a LoadSource takes
// them a run at a time and submits each run to a fused counting sink.
// Steady state it allocates nothing: the injector's two buffers, the
// source's outBuf and the pooled pe.Batch are all reused.
func BenchmarkIngestHandoff(b *testing.B) {
	objs := opapi.NewObjects()
	in := InjectorIn(objs, "bench-ingest")
	sink := &countSink{}
	p := ingestPE(b, objs, "bench-ingest", sink)
	defer p.Stop()
	ring := make([]tuple.Tuple, 1024)
	for i := range ring {
		ring[i] = makeSeq(int64(i))
	}
	for _, t := range ring { // grow every buffer before the clock starts
		in.Push(t, nil)
	}
	sink.await(b, int64(len(ring)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Push(ring[i%len(ring)], nil)
	}
	sink.await(b, int64(len(ring)+b.N))
	b.StopTimer()
}
