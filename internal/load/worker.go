package load

import (
	"fmt"
	"slices"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// KindKeyedWorker is a stateful pass-through worker with a fixed
// per-tuple service time: the operator the fission scenario
// parallelises. Each tuple costs a configurable delay (standing in for
// real per-tuple work such as a model-scoring call) and/or a CPU spin,
// and bumps a per-key counter before the tuple is forwarded unchanged,
// so (a) one replica has a measurable capacity ceiling that added
// replicas multiply — the delay form multiplies even on a single-core
// machine, since parallel replicas overlap their waits — and (b) the
// region carries per-key state that a width change must migrate.
const KindKeyedWorker = "KeyedWorker"

// keyedWorker counts tuples per key and charges a service time per
// tuple.
//
// Parameters:
//
//	keyAttr string  string attribute the per-key state is keyed by (required)
//	delay   string  Go duration charged per tuple (default 0)
//	spin    int     LCG iterations burned per tuple (default 0)
type keyedWorker struct {
	opapi.Base
	ctx    opapi.Context
	keyRef tuple.FieldRef
	delay  time.Duration
	spin   int64
	counts map[string]int64
	// sorted is counts' key set in capture order, kept across captures.
	// Keys are never removed from counts, so equal length means an
	// equal set: sortedKeys re-sorts only when a key was added.
	sorted []string

	// sink receives the spin loop's running value so the compiler
	// cannot discard the loop as dead code.
	sink uint64
}

func (w *keyedWorker) Open(ctx opapi.Context) error {
	w.ctx = ctx
	cfg := ctx.Params().Bind()
	keyAttr := cfg.Str("keyAttr", "")
	w.delay = cfg.Duration("delay", 0)
	w.spin = cfg.Int("spin", 0)
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("KeyedWorker %s: %w", ctx.Name(), err)
	}
	if keyAttr == "" {
		return fmt.Errorf("KeyedWorker %s: keyAttr is required", ctx.Name())
	}
	ref, err := ctx.InputSchema(0).TypedRef(keyAttr, tuple.String)
	if err != nil {
		return fmt.Errorf("KeyedWorker %s: %w", ctx.Name(), err)
	}
	w.keyRef = ref
	if w.counts == nil {
		w.counts = make(map[string]int64)
	}
	return nil
}

func (w *keyedWorker) Process(port int, t tuple.Tuple) error {
	if w.delay > 0 && !opapi.Sleep(w.ctx.Clock(), w.delay, w.ctx.Done()) {
		return nil // shutting down: drop
	}
	x := w.sink
	for i := int64(0); i < w.spin; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	w.sink = x
	w.counts[w.keyRef.Str(t)]++
	return w.ctx.Submit(0, t)
}

// SaveState snapshots the per-key counters in sorted key order, so
// identical state always produces identical bytes.
func (w *keyedWorker) SaveState(e *ckpt.Encoder) error { return w.put(e, w.sortedKeys()) }

// put writes keys and their counters in SaveState format.
func (w *keyedWorker) put(e *ckpt.Encoder, keys []string) error {
	e.PutUint(uint64(len(keys)))
	for _, k := range keys {
		e.PutStr(k)
		e.PutInt(w.counts[k])
	}
	return nil
}

// sortedKeys returns the key set in order, re-sorting only when it grew.
func (w *keyedWorker) sortedKeys() []string {
	if len(w.sorted) != len(w.counts) {
		w.sorted = w.sorted[:0]
		for k := range w.counts {
			w.sorted = append(w.sorted, k)
		}
		slices.Sort(w.sorted)
	}
	return w.sorted
}

// RestoreState replaces the counters with the snapshot's.
func (w *keyedWorker) RestoreState(d *ckpt.Decoder) error {
	n := d.Uint()
	if err := d.Err(); err != nil {
		return err
	}
	// Every entry takes at least 2 bytes, so the payload bounds the size
	// hint: a hostile count cannot force a large allocation.
	counts := make(map[string]int64, min(n, uint64(d.Remaining()/2)))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k := d.Str()
		counts[k] = d.Int()
	}
	if err := d.Err(); err != nil {
		return err
	}
	w.counts = counts
	w.sorted = nil
	return nil
}

// MergeState folds another partition's counters in, summing on key
// overlap.
func (w *keyedWorker) MergeState(d *ckpt.Decoder) error {
	n := d.Uint()
	if err := d.Err(); err != nil {
		return err
	}
	if w.counts == nil {
		w.counts = make(map[string]int64, min(n, uint64(d.Remaining()/2)))
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k := d.Str()
		v := d.Int()
		if d.Err() == nil {
			w.counts[k] += v
		}
	}
	return d.Err()
}

// SplitState writes only the keys opapi.PartitionOf assigns to
// partition part of width — the same hash the region's split applies
// per tuple to the string key attribute.
func (w *keyedWorker) SplitState(e *ckpt.Encoder, part, width int) error {
	return w.put(e, slices.DeleteFunc(slices.Clone(w.sortedKeys()), func(k string) bool {
		return opapi.PartitionOf(k, 0, width) != part
	}))
}

func init() {
	opapi.Default.RegisterOp(KindKeyedWorker,
		func() opapi.Operator { return &keyedWorker{} },
		&opapi.OpModel{
			Doc:          "Stateful CPU-bound pass-through worker counting tuples per key; the canonical parallel-region operator.",
			Inputs:       opapi.ExactlyPorts(1),
			Outputs:      opapi.ExactlyPorts(1),
			PartitionKey: "keyAttr",
			Params: []opapi.ParamSpec{
				{Name: "keyAttr", Type: opapi.ParamString, Required: true,
					Doc: "string attribute the per-key state is keyed by"},
				{Name: "delay", Type: opapi.ParamDuration, Default: "0s",
					Doc: "service time charged per tuple (simulated work)"},
				{Name: "spin", Type: opapi.ParamInt, Default: "0", Min: opapi.Bound(0),
					Doc: "CPU iterations burned per tuple (simulated work)"},
			},
		})
}
