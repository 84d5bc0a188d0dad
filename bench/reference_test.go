package main

import (
	"strings"
	"testing"
	"time"

	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// offer pushes n tuples closed-loop and waits for the sink to have them.
func offer(t *testing.T, r *run, n int64) {
	t.Helper()
	lo := r.next
	base := r.j.sink.count.Load()
	for i := int64(0); i < n; i++ {
		r.j.inj.Push(r.tuple(time.Time{}, time.Time{}), nil)
	}
	if err := waitFor(waitDeadline, "the offered tuples", func() bool { return r.j.sink.count.Load() >= base+n }); err != nil {
		t.Fatal(err)
	}
	r.strict = append(r.strict, seqRange{lo, r.next})
}

// What the sink accumulates from a real run of each graph equals what
// the reference computes from the generated inputs alone: seq+2 through
// the two Functors, identity through the keyed region, and the region's
// replicas each got the keys PartitionOf gives them.
func TestReferenceAgreesOnEachGraph(t *testing.T) {
	in := newInputs(7)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			j, _, err := startJob(w, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer j.close()
			r := &run{w: w, in: in, j: j}
			offer(t, r, 10000)
			if v := r.verify(); v.bad != 0 || v.delivered != 10000 || v.offered != 10000 {
				t.Fatalf("verdict %+v", v)
			}
			if got := j.sink.probes.Load(); got != 1 {
				t.Errorf("sink saw %d first-tuple probes, want the set-up's 1", got)
			}
			if w.keyed() {
				if err := r.checkReplicas(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// The same tuples under another seed are different tuples: the check is
// against the inputs, not against itself.
func TestReferenceDependsOnSeed(t *testing.T) {
	a, b := newInputs(7), newInputs(8)
	same := 0
	for i := int64(0); i < 1000; i++ {
		if a.refHash(i) == b.refHash(i) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of 1000 reference hashes equal across seeds", same)
	}
	if c := newInputs(7); c.refHash(123) != a.refHash(123) || c.names[c.keyIdx[5]] != a.names[a.keyIdx[5]] {
		t.Error("the same seed gave different inputs")
	}
}

// feedSink opens a BenchSink on a stub context and returns a run whose
// verify reads it, plus a function that delivers one tuple to it.
func feedSink(t *testing.T, in *inputs, delta int64) (*run, func(seq int64, mutate func(tuple.Tuple))) {
	t.Helper()
	id := "test-sink-" + t.Name()
	st := newSink(id, delta, true)
	t.Cleanup(func() { dropSink(id) })
	op, err := openOp(KindBenchSink, opapi.Params{"sinkId": id}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{in: in, j: &job{sink: st, rt: &routine{}}}
	return r, func(seq int64, mutate func(tuple.Tuple)) {
		tp := tuple.New(eventSchema)
		in.fill(tp, seq)
		seqRef.SetInt(tp, seq+delta)
		if mutate != nil {
			mutate(tp)
		}
		if err := op.Process(0, tp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVerifyCatchesWrongOutputs(t *testing.T) {
	in := newInputs(7)
	for _, tc := range []struct {
		name    string
		deliver func(send func(int64, func(tuple.Tuple)))
		strict  bool
		wantBad int64
		wantErr string
	}{
		{name: "all right", strict: true,
			deliver: func(send func(int64, func(tuple.Tuple))) {
				for i := int64(99); i >= 0; i-- { // order does not matter
					send(i, nil)
				}
			}},
		{name: "allowed loss", strict: false,
			deliver: func(send func(int64, func(tuple.Tuple))) {
				for i := int64(0); i < 100; i += 2 {
					send(i, nil)
				}
			}},
		{name: "shortfall", strict: true, wantBad: 1, wantErr: "never arrived",
			deliver: func(send func(int64, func(tuple.Tuple))) {
				for i := int64(0); i < 99; i++ {
					send(i, nil)
				}
			}},
		{name: "duplicate", strict: true, wantBad: 1, wantErr: "arrived twice",
			deliver: func(send func(int64, func(tuple.Tuple))) {
				for i := int64(0); i < 100; i++ {
					send(i, nil)
				}
				send(17, nil)
			}},
		{name: "wrong payload", strict: true, wantBad: 1, wantErr: "the reference over the delivered set",
			deliver: func(send func(int64, func(tuple.Tuple))) {
				for i := int64(0); i < 100; i++ {
					var m func(tuple.Tuple)
					if i == 40 {
						m = func(tp tuple.Tuple) { scoreRef.SetFloat(tp, scoreRef.Float(tp)+1) }
					}
					send(i, m)
				}
			}},
		{name: "wrong key", strict: true, wantBad: 1, wantErr: "the reference over the delivered set",
			deliver: func(send func(int64, func(tuple.Tuple))) {
				for i := int64(0); i < 100; i++ {
					var m func(tuple.Tuple)
					if i == 40 {
						m = func(tp tuple.Tuple) { userRef.SetStr(tp, "nobody") }
					}
					send(i, m)
				}
			}},
		{name: "never offered", strict: true, wantBad: 1, wantErr: "the reference over the delivered set",
			deliver: func(send func(int64, func(tuple.Tuple))) {
				for i := int64(0); i < 100; i++ {
					send(i, nil)
				}
				send(5000, nil)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, send := feedSink(t, in, 2)
			tc.deliver(send)
			r.next = 100
			if tc.strict {
				r.strict = []seqRange{{0, 100}}
			}
			v := r.verify()
			if v.bad != tc.wantBad {
				t.Errorf("bad = %d, want %d (%v)", v.bad, tc.wantBad, v.errs)
			}
			if tc.wantErr != "" && !strings.Contains(strings.Join(v.errs, "; "), tc.wantErr) {
				t.Errorf("errors %q do not mention %q", v.errs, tc.wantErr)
			}
		})
	}
}
