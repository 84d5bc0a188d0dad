package main

import (
	"fmt"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/ids"
	"streamorca/internal/load"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/pe"
	"streamorca/internal/transport"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

// The layer probes time each layer from outside, through its public
// calls, on the rows of the workload's own input table. A probe makes
// probePasses passes over the table and reports the median pass.
//
// Probes of plain calls (tuple, ops, ckpt) report wall time per tuple,
// which on one goroutine is CPU time. Probes that hand tuples to another
// goroutine (transport, pe) report the process's CPU time per tuple
// instead: the two sides overlap in wall time, and it is CPU that the
// attribution adds up against cpu_ns_per_tuple.
var probePasses = 5 // the tests make one

// frameTuples is the run length of the batch probes; it equals
// transport.MaxFrameTuples, what a saturated link delivers.
const frameTuples = transport.MaxFrameTuples

// perTuple times passes of f, each covering n tuples, on the given
// clock and returns the median pass in nanoseconds per tuple.
func perTuple(clock func() time.Duration, n int, f func()) float64 {
	xs := make([]float64, probePasses)
	for i := range xs {
		t0 := clock()
		f()
		xs[i] = float64((clock() - t0).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

func wallPerTuple(n int, f func()) float64 { return perTuple(wallTime, n, f) }
func cpuPerTuple(n int, f func()) float64  { return perTuple(cpuTime, n, f) }

// probeTuples materialises the input table as tuples, stamped the way
// the paced driver stamps them so that encoded sizes are realistic.
func probeTuples(in *inputs) []tuple.Tuple {
	ts := tuple.NewBlock(eventSchema, tableSize)
	base := time.Now()
	for i, t := range ts {
		in.fill(t, int64(i))
		at := base.Add(time.Duration(i) * time.Microsecond)
		tsRef.SetTime(t, at)
		sentRef.SetTime(t, at)
	}
	return ts
}

// keep defeats dead-code elimination of probe loops.
var keep tuple.Tuple

func probeTupleLayer(in *inputs, ts []tuple.Tuple, out map[string]float64) error {
	out["tuple.new_ns"] = wallPerTuple(tableSize, func() {
		for i := int64(0); i < tableSize; i++ {
			t := tuple.New(eventSchema)
			in.fill(t, i)
			keep = t
		}
	})

	var total int
	encoded := make([][]byte, len(ts))
	for i, t := range ts {
		b, err := tuple.Encode(nil, t)
		if err != nil {
			return err
		}
		encoded[i] = b
		total += tuple.EncodedSize(t)
	}
	out["tuple.bytes_per_tuple"] = float64(total) / float64(len(ts))

	buf := make([]byte, 0, 256)
	var encErr error
	out["tuple.encode_ns"] = wallPerTuple(len(ts), func() {
		for _, t := range ts {
			if buf, encErr = tuple.Encode(buf[:0], t); encErr != nil {
				return
			}
		}
	})
	if encErr != nil {
		return encErr
	}

	dst := tuple.New(eventSchema)
	var decErr error
	out["tuple.decode_ns"] = wallPerTuple(len(ts), func() {
		for _, b := range encoded {
			if _, decErr = tuple.DecodeInto(&dst, b); decErr != nil {
				return
			}
		}
	})
	return decErr
}

// probeTransport saturates one link whose remote end recycles each
// delivered batch: Send, framing, encode, decode, delivery.
func probeTransport(ts []tuple.Tuple, out map[string]float64) {
	var frames, tuples int64
	link := transport.NewLink(eventSchema, func(b *pe.Batch) {
		frames++
		tuples += int64(len(b.Items))
		pe.PutBatch(b)
	}, nil, nil, nil)
	defer link.Close()
	out["transport.hop_ns"] = cpuPerTuple(len(ts), func() {
		for _, t := range ts {
			link.Send(pe.TupleItem(t))
		}
		link.Flush()
	})
	out["transport.tuples_per_frame"] = float64(tuples) / float64(frames)
}

var probePEs ids.PEID = 1 << 40 // ids for the probes' bare containers, clear of SAM's

// probePE starts a bare container of the given operators ending in a
// counting-only BenchSink, outside any job.
func probePE(specs []pe.OpSpec, wires []pe.Wire) (*pe.PE, *sinkState, error) {
	probePEs++
	sinkID := fmt.Sprintf("probe-sink-%d", probePEs)
	st := newSink(sinkID, 0, false)
	st.countOnly = true
	specs = append(specs, pe.OpSpec{
		Name: "sink", Kind: KindBenchSink, Params: opapi.Params{"sinkId": sinkID},
		Inputs: []*tuple.Schema{eventSchema},
	})
	p, err := pe.New(pe.Config{ID: probePEs, App: "probe", Ops: specs, Wires: wires})
	if err == nil {
		err = p.Start()
	}
	dropSink(sinkID) // Open has resolved it
	return p, st, err
}

func functorSpec() pe.OpSpec {
	return pe.OpSpec{
		Name: "f", Kind: ops.KindFunctor, Params: opapi.Params{"addInt": "seq:1"},
		Inputs: []*tuple.Schema{eventSchema}, Outputs: []*tuple.Schema{eventSchema},
	}
}

// probePELayer times the container's two delivery paths into a one-
// operator PE, and the extra intra-PE hop of a two-operator one.
func probePELayer(ts []tuple.Tuple, functorNs float64, out map[string]float64) error {
	n := int64(len(ts))
	drained := func(st *sinkState, base int64) error {
		return waitFor(waitDeadline, "a probe PE to drain", func() bool { return st.count.Load() >= base+n })
	}

	one, st, err := probePE(nil, nil)
	if err != nil {
		return err
	}
	defer one.Stop()
	inlet, err := one.ExternalInlet("sink", 0)
	if err != nil {
		return err
	}
	var waitErr error
	out["pe.inlet_ns"] = cpuPerTuple(len(ts), func() {
		base := st.count.Load()
		for _, t := range ts {
			inlet(pe.TupleItem(t))
		}
		if err := drained(st, base); err != nil {
			waitErr = err
		}
	})

	batchInlet, err := one.ExternalBatchInlet("sink", 0)
	if err != nil {
		return err
	}
	out["pe.batch_inlet_ns"] = cpuPerTuple(len(ts), func() {
		base := st.count.Load()
		for i := 0; i < len(ts); i += frameTuples {
			b := pe.GetBatch()
			for _, t := range ts[i:min(i+frameTuples, len(ts))] {
				b.Items = append(b.Items, pe.TupleItem(t))
			}
			batchInlet(b)
		}
		if err := drained(st, base); err != nil {
			waitErr = err
		}
	})

	two, st2, err := probePE([]pe.OpSpec{functorSpec()}, []pe.Wire{{FromOp: "f", ToOp: "sink"}})
	if err != nil {
		return err
	}
	defer two.Stop()
	inlet2, err := two.ExternalInlet("f", 0)
	if err != nil {
		return err
	}
	twoNs := cpuPerTuple(len(ts), func() {
		base := st2.count.Load()
		for _, t := range ts {
			inlet2(pe.TupleItem(t))
		}
		if err := drained(st2, base); err != nil {
			waitErr = err
		}
	})
	// What the second operator's queue hop costs on its own: the two-
	// operator PE, less the one-operator PE, less the Functor's work.
	out["pe.fused_hop_ns"] = twoNs - out["pe.inlet_ns"] - functorNs
	return waitErr
}

// stubContext is the opapi.Context the operator probes open operators
// on: Submit drops the tuple.
type stubContext struct {
	kind    string
	params  opapi.Params
	in, out []*tuple.Schema
	custom  *metrics.Set
}

func (c *stubContext) Name() string                     { return "probe" }
func (c *stubContext) Kind() string                     { return c.kind }
func (c *stubContext) App() string                      { return "probe" }
func (c *stubContext) Params() opapi.Params             { return c.params }
func (c *stubContext) NumInputs() int                   { return len(c.in) }
func (c *stubContext) NumOutputs() int                  { return len(c.out) }
func (c *stubContext) InputSchema(i int) *tuple.Schema  { return c.in[i] }
func (c *stubContext) OutputSchema(i int) *tuple.Schema { return c.out[i] }
func (c *stubContext) Submit(int, tuple.Tuple) error    { return nil }
func (c *stubContext) SubmitMark(int, tuple.Mark) error { return nil }
func (c *stubContext) CustomMetric(name string) *metrics.Counter {
	return c.custom.Counter(name)
}
func (c *stubContext) Clock() vclock.Clock   { return vclock.Real() }
func (c *stubContext) Done() <-chan struct{} { return nil }
func (c *stubContext) Logf(string, ...any)   {}

// openOp opens a fresh operator of the kind on a stub context with the
// given number of event-schema ports.
func openOp(kind string, params opapi.Params, inputs, outputs int) (opapi.Operator, error) {
	op, err := opapi.Default.New(kind)
	if err != nil {
		return nil, err
	}
	ctx := &stubContext{kind: kind, params: params, custom: metrics.NewSet()}
	for i := 0; i < inputs; i++ {
		ctx.in = append(ctx.in, eventSchema)
	}
	for i := 0; i < outputs; i++ {
		ctx.out = append(ctx.out, eventSchema)
	}
	return op, op.Open(ctx)
}

// perTupleProbe times op.Process over the table.
func perTupleProbe(op opapi.Operator, ts []tuple.Tuple) (float64, error) {
	var err error
	ns := wallPerTuple(len(ts), func() {
		for _, t := range ts {
			if err = op.Process(0, t); err != nil {
				return
			}
		}
	})
	return ns, err
}

// batchProbe times op.ProcessBatch over the table in frame-sized runs.
func batchProbe(op opapi.Operator, ts []tuple.Tuple) (float64, error) {
	bop, ok := op.(opapi.BatchOperator)
	if !ok {
		return 0, fmt.Errorf("%T is not a BatchOperator", op)
	}
	var view tuple.Batch
	var err error
	ns := wallPerTuple(len(ts), func() {
		for i := 0; i < len(ts); i += frameTuples {
			view.SetView(ts[i:min(i+frameTuples, len(ts))])
			if err = bop.ProcessBatch(0, &view); err != nil {
				return
			}
		}
	})
	return ns, err
}

// probeOps times the operators the workloads use, each the way the PE
// calls it on the unfused path: per tuple for Split and KeyedWorker,
// per run for Merge, both ways for Functor. It returns a KeyedWorker
// holding one replica's share of the table's keys, for the ckpt probe.
func probeOps(in *inputs, ts []tuple.Tuple, out map[string]float64) (opapi.StatefulOperator, error) {
	type probe struct {
		metric, kind string
		params       opapi.Params
		outputs      int
		batch        bool
	}
	for _, p := range []probe{
		{"ops.functor_ns", ops.KindFunctor, opapi.Params{"addInt": "seq:1"}, 1, false},
		{"ops.functor_batch_ns", ops.KindFunctor, opapi.Params{"addInt": "seq:1"}, 1, true},
		{"ops.split_ns", ops.KindSplit, opapi.Params{"mode": "hash", "attr": "user"}, regionWidth, false},
		{"ops.keyedworker_ns", load.KindKeyedWorker, opapi.Params{"keyAttr": "user"}, 1, false},
		{"ops.merge_ns", ops.KindMerge, nil, 1, true},
	} {
		op, err := openOp(p.kind, p.params, 1, p.outputs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.metric, err)
		}
		if p.batch {
			out[p.metric], err = batchProbe(op, ts)
		} else {
			out[p.metric], err = perTupleProbe(op, ts)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.metric, err)
		}
	}

	replica, err := openOp(load.KindKeyedWorker, opapi.Params{"keyAttr": "user"}, 1, 1)
	if err != nil {
		return nil, err
	}
	for i, t := range ts {
		if in.part[regionWidth][i] == 0 {
			if err := replica.Process(0, t); err != nil {
				return nil, err
			}
		}
	}
	st, ok := replica.(opapi.StatefulOperator)
	if !ok {
		return nil, fmt.Errorf("%s is not a StatefulOperator", load.KindKeyedWorker)
	}
	return st, nil
}

// probeCkpt times a snapshot of one replica's state through the
// format and the in-memory store: what a periodic checkpoint writes and
// what a restart reads back.
func probeCkpt(replica opapi.StatefulOperator, out map[string]float64) error {
	us := func(f func() error) (float64, error) { return timesUs(21, f) }
	var snap []byte
	var err error
	if out["ckpt.encode_us"], err = us(func() error {
		w := ckpt.NewWriter()
		defer w.Close()
		if err := w.Section(regionName+"/0", load.KindKeyedWorker, replica.SaveState); err != nil {
			return err
		}
		snap = append(snap[:0], w.Finish()...)
		return nil
	}); err != nil {
		return err
	}
	out["ckpt.snapshot_bytes"] = float64(len(snap))
	if out["ckpt.parse_us"], err = us(func() error {
		_, err := ckpt.Parse(snap)
		return err
	}); err != nil {
		return err
	}
	store := ckpt.NewMemStore()
	if out["ckpt.save_us"], err = us(func() error { return store.Save("probe", snap) }); err != nil {
		return err
	}
	out["ckpt.load_us"], err = us(func() error {
		_, _, err := store.Load("probe")
		return err
	})
	return err
}

// ingest is the LoadSource -> BenchSink job alone, cut the way the
// workload is: the ceiling the single driver and the injector put on
// every workload, and the CPU a tuple costs before the first operator.
type ingest struct {
	ceilingTps float64
	cpuNs      float64
}

func probeIngest(w *workloadDef, in *inputs, d time.Duration) (ingest, error) {
	def := workloadDef{name: w.name + "-ingest", graph: ingestGraph, fusion: w.fusion}
	j, _, err := startJob(&def, true, nil)
	if err != nil {
		return ingest{}, err
	}
	defer j.close()
	r := &run{w: &def, in: in, j: j}
	segs, err := r.closedLoop(3, d, nil, nil)
	if err != nil {
		return ingest{}, err
	}
	if v := r.verify(); v.bad > 0 {
		return ingest{}, fmt.Errorf("ingest probe: %v", v.errs)
	}
	return ingest{ceilingTps: medianOf(segs, segment.tps), cpuNs: medianOf(segs, segment.cpuNs)}, nil
}
