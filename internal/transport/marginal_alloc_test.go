//go:build !race

// Not under the race detector: sync.Pool drops puts at random there, so
// recycled blocks and batches would be reallocated at random.

package transport

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/pe"
	"streamorca/internal/tuple"
)

// chainSink counts what reaches the end of a chain.
type chainSink struct {
	opapi.Base
	n atomic.Int64
}

func (s *chainSink) Process(int, tuple.Tuple) error { s.n.Add(1); return nil }

func (s *chainSink) ProcessBatch(port int, b *tuple.Batch) error {
	s.n.Add(int64(b.Len()))
	return nil
}

// chain is k Functors and a counting sink: fused into one container, or
// cut into k+1 containers joined by k links.
type chain struct {
	feed func(*pe.Batch)
	sink *chainSink
	stop func()
}

func newChain(t *testing.T, schema *tuple.Schema, k int, fused bool) *chain {
	t.Helper()
	c := &chain{sink: &chainSink{}}
	reg := opapi.NewRegistry()
	reg.Register("F", func() opapi.Operator {
		op, err := opapi.Default.New(ops.KindFunctor)
		if err != nil {
			panic(err)
		}
		return op
	})
	reg.Register("Sink", func() opapi.Operator { return c.sink })
	one := []*tuple.Schema{schema}
	var specs []pe.OpSpec
	for i := 0; i < k; i++ {
		specs = append(specs, pe.OpSpec{
			Name: fmt.Sprint("f", i), Kind: "F", Params: opapi.Params{"addInt": "seq:1"}, Inputs: one, Outputs: one,
		})
	}
	specs = append(specs, pe.OpSpec{Name: "sink", Kind: "Sink", Inputs: one})

	var pes []*pe.PE
	var links []*Link
	add := func(specs []pe.OpSpec, wires []pe.Wire) {
		p, err := pe.New(pe.Config{ID: 1, Job: 1, App: "chain", Ops: specs, Wires: wires, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		pes = append(pes, p)
	}
	if fused {
		var wires []pe.Wire
		for i := 0; i < k; i++ {
			wires = append(wires, pe.Wire{FromOp: specs[i].Name, ToOp: specs[i+1].Name})
		}
		add(specs, wires)
	} else {
		for i := range specs {
			add(specs[i:i+1], nil)
		}
		for i := 0; i < k; i++ {
			inlet, err := pes[i+1].ExternalBatchInlet(specs[i+1].Name, 0)
			if err != nil {
				t.Fatal(err)
			}
			l := NewLink(schema, inlet, nil, nil, func(err error) { t.Error(err) })
			links = append(links, l)
			if err := pes[i].AddOutlet(specs[i].Name, 0, "l", l.SendRun); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range pes {
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if c.feed, err = pes[0].ExternalBatchInlet(specs[0].Name, 0); err != nil {
		t.Fatal(err)
	}
	c.stop = func() {
		for _, l := range links {
			l.Discard()
		}
		for _, p := range pes {
			p.Stop()
		}
	}
	return c
}

// push feeds frames of the pre-built tuples and waits for the sink to
// have seen them all, without allocating.
func (c *chain) push(t *testing.T, ts []tuple.Tuple, frames int) {
	t.Helper()
	want := c.sink.n.Load() + int64(frames*MaxFrameTuples)
	for f := 0; f < frames; f++ {
		b := pe.GetBatch()
		at := f * MaxFrameTuples % len(ts)
		for _, tu := range ts[at : at+MaxFrameTuples] {
			b.Items = append(b.Items, pe.TupleItem(tu))
		}
		c.feed(b)
	}
	for deadline := time.Now().Add(30 * time.Second); c.sink.n.Load() < want; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("chain drained %d of %d tuples", c.sink.n.Load(), want)
		}
	}
}

// bytesPerTuple is what a chain allocates per tuple in steady state: the
// least of several windows, since what recurs for every tuple is in all
// of them, while a queue or a pool growing to a new high-water mark — a
// link's pending buffer doubling, one more block in flight — lands in
// one.
func bytesPerTuple(t *testing.T, schema *tuple.Schema, ts []tuple.Tuple, k int, fused bool) float64 {
	t.Helper()
	c := newChain(t, schema, k, fused)
	defer c.stop()
	const windows, frames = 8, 300
	c.push(t, ts, frames)
	least := -1.0
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.push(t, ts, frames)
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / float64(frames*MaxFrameTuples)
		if least < 0 || per < least {
			least = per
		}
	}
	return least
}

// TestHopAllocatesNoTupleStorage is ROADMAP item 5's structural pin: a
// chain of k+1 Functors allocates, per tuple in steady state, what a
// chain of k does — plus, on a schema with a string, the bytes of the
// strings each cross-PE hop decodes, the one thing a hop still allocates.
// Bytes are exact and additive, so the bound is a byte, not a ratio, and
// no wall clock is involved.
func TestHopAllocatesNoTupleStorage(t *testing.T) {
	// A collection empties the pools' idle entries, which are then
	// allocated again: not a cost of the hop, so none runs meanwhile (the
	// test allocates a few tens of MB in all).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	numeric := tuple.MustSchema(
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "score", Type: tuple.Float},
		tuple.Attribute{Name: "ts", Type: tuple.Timestamp},
	)
	// The benchmark's event schema.
	event := tuple.MustSchema(
		tuple.Attribute{Name: "user", Type: tuple.String},
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "score", Type: tuple.Float},
		tuple.Attribute{Name: "ts", Type: tuple.Timestamp},
		tuple.Attribute{Name: "sent", Type: tuple.Timestamp},
	)
	// A 13-byte key. A frame's strings decode into one allocation: 64
	// keys are 832 bytes, which the allocator rounds up to its 896-byte
	// size class, so 14 B per tuple.
	const keyBytes = 896.0 / MaxFrameTuples
	fill := func(s *tuple.Schema) []tuple.Tuple {
		ts := tuple.NewBlock(s, 16*MaxFrameTuples)
		at := time.Unix(1700000000, 0)
		for i, tu := range ts {
			if s == event {
				if err := tu.SetString("user", fmt.Sprintf("user-%08d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tu.SetInt("seq", int64(i)); err != nil {
				t.Fatal(err)
			}
			if err := tu.SetTime("ts", at.Add(time.Duration(i)*time.Microsecond)); err != nil {
				t.Fatal(err)
			}
		}
		return ts
	}
	for _, tc := range []struct {
		name   string
		schema *tuple.Schema
		fused  bool
		hop    float64 // bytes per tuple one more stage may add
	}{
		{"numeric/fused", numeric, true, 0},
		{"numeric/unfused", numeric, false, 0},
		{"event/fused", event, true, 0},
		{"event/unfused", event, false, keyBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := fill(tc.schema)
			var per [4]float64
			for k := 1; k <= 3; k++ {
				per[k] = bytesPerTuple(t, tc.schema, ts, k, tc.fused)
			}
			t.Logf("B/tuple at 1, 2, 3 stages: %.2f %.2f %.2f", per[1], per[2], per[3])
			for k := 1; k < 3; k++ {
				if d := per[k+1] - per[k]; d > tc.hop+1 || d < tc.hop-1 {
					t.Errorf("stage %d adds %.2f B/tuple, want %.0f ± 1", k+1, d, tc.hop)
				}
			}
		})
	}
}
