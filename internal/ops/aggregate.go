package ops

import (
	"fmt"
	"math"
	"sort"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// aggregate maintains a per-group sliding time window over one numeric
// attribute and emits summary statistics for the group on every input
// tuple — the windowed analytics shape of the paper's Trend Calculator
// (§5.2): min/max/average price and Bollinger bands over a 600-second
// window per stock symbol.
//
// Output attributes are filled by name when the output schema declares
// them: the group attribute (copied), "min", "max", "avg", "stddev",
// "bbUpper", "bbLower" (avg ± 2σ), and "count" (int64 window size).
//
// The window is processing-time based on the platform clock, so
// experiments on a virtual clock control window motion exactly. On a
// platform without a checkpoint store a crash loses the window —
// rebuilding it takes a full window duration of fresh tuples, which is
// precisely the recovery gap Figure 9 shows. The operator is stateful:
// with checkpointing enabled, a restarted PE restores the group windows
// from the latest snapshot and closes that gap.
//
// Parameters:
//
//	window    string  Go duration of the sliding window (required)
//	groupBy   string  grouping attribute (optional: one global group)
//	valueAttr string  numeric attribute to aggregate (required, float64)
type aggregate struct {
	opapi.Base
	ctx      opapi.Context
	window   time.Duration
	groupBy  string
	valueRef tuple.FieldRef
	groupRef tuple.FieldRef // valid only when groupBy is set and a string
	groups   map[string][]sample

	// Output refs compiled at Open: each stat is written only when the
	// output schema declares the attribute.
	outGroup                                      tuple.FieldRef
	outMin, outMax, outAvg, outSD, outBBU, outBBL tuple.FieldRef
	outCount                                      tuple.FieldRef
}

type sample struct {
	at time.Time
	v  float64
}

func (a *aggregate) Open(ctx opapi.Context) error {
	a.ctx = ctx
	cfg := ctx.Params().Bind()
	a.window = cfg.Duration("window", 0)
	valueAttr := cfg.Str("valueAttr", "")
	a.groupBy = cfg.Str("groupBy", "")
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("Aggregate %s: %w", ctx.Name(), err)
	}
	if a.window <= 0 {
		return fmt.Errorf("Aggregate %s: window parameter required", ctx.Name())
	}
	if valueAttr == "" {
		return fmt.Errorf("Aggregate %s: valueAttr parameter required", ctx.Name())
	}
	ref, err := ctx.InputSchema(0).TypedRef(valueAttr, tuple.Float)
	if err != nil {
		return fmt.Errorf("Aggregate %s: valueAttr %q must be a float64 input attribute", ctx.Name(), valueAttr)
	}
	a.valueRef = ref
	if a.groupBy != "" {
		if ref, err := ctx.InputSchema(0).TypedRef(a.groupBy, tuple.String); err == nil {
			a.groupRef = ref
		}
	}
	out := ctx.OutputSchema(0)
	optFloat := func(name string) tuple.FieldRef {
		ref, err := out.TypedRef(name, tuple.Float)
		if err != nil {
			return tuple.FieldRef{}
		}
		return ref
	}
	a.outMin, a.outMax, a.outAvg = optFloat("min"), optFloat("max"), optFloat("avg")
	a.outSD, a.outBBU, a.outBBL = optFloat("stddev"), optFloat("bbUpper"), optFloat("bbLower")
	if ref, err := out.TypedRef("count", tuple.Int); err == nil {
		a.outCount = ref
	}
	if a.groupBy != "" {
		if ref, err := out.TypedRef(a.groupBy, tuple.String); err == nil {
			a.outGroup = ref
		}
	}
	a.groups = make(map[string][]sample)
	return nil
}

func (a *aggregate) Process(port int, t tuple.Tuple) error {
	return a.ingest(t, a.ctx.Clock().Now())
}

// ProcessBatch ingests the whole run against one clock reading: every
// tuple of a batch arrives at the same processing-time instant, so the
// (comparatively expensive) platform-clock read runs once per frame
// instead of once per tuple.
func (a *aggregate) ProcessBatch(port int, b *tuple.Batch) error {
	now := a.ctx.Clock().Now()
	for _, t := range b.Tuples() {
		if err := a.ingest(t, now); err != nil {
			return err
		}
	}
	return nil
}

// ingest slides the group window to now, folds in the tuple's value,
// and emits the group's refreshed statistics.
func (a *aggregate) ingest(t tuple.Tuple, now time.Time) error {
	key := ""
	if a.groupRef.Valid() {
		key = a.groupRef.Str(t)
	}
	win := append(a.groups[key], sample{at: now, v: a.valueRef.Float(t)})
	cut := now.Add(-a.window)
	drop := 0
	for drop < len(win) && !win[drop].at.After(cut) {
		drop++
	}
	win = win[drop:]
	a.groups[key] = win

	var sum, sumSq float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range win {
		sum += s.v
		sumSq += s.v * s.v
		if s.v < lo {
			lo = s.v
		}
		if s.v > hi {
			hi = s.v
		}
	}
	n := float64(len(win))
	avg := sum / n
	variance := sumSq/n - avg*avg
	if variance < 0 {
		variance = 0
	}
	sd := math.Sqrt(variance)

	out := tuple.New(a.ctx.OutputSchema(0))
	if a.outGroup.Valid() {
		a.outGroup.SetStr(out, key)
	}
	setIf := func(ref tuple.FieldRef, v float64) {
		if ref.Valid() {
			ref.SetFloat(out, v)
		}
	}
	setIf(a.outMin, lo)
	setIf(a.outMax, hi)
	setIf(a.outAvg, avg)
	setIf(a.outSD, sd)
	setIf(a.outBBU, avg+2*sd)
	setIf(a.outBBL, avg-2*sd)
	if a.outCount.Valid() {
		a.outCount.SetInt(out, int64(len(win)))
	}
	return a.ctx.Submit(0, out)
}

// SaveState snapshots every group's window: the one part of a width-1
// split. Groups are written in sorted key order so identical state
// always produces identical bytes.
func (a *aggregate) SaveState(e *ckpt.Encoder) error { return a.SplitState(e, 0, 1) }

// RestoreState replaces the group windows with the snapshot's, merged
// into an empty set; a snapshot that fails to decode leaves the old
// windows. Expiry needs no special handling: restored samples carry
// their original timestamps, so the next Process drops whatever aged
// out while the PE was down.
func (a *aggregate) RestoreState(d *ckpt.Decoder) error {
	old := a.groups
	a.groups = nil
	if err := a.MergeState(d); err != nil {
		a.groups = old
		return err
	}
	return nil
}

// MergeState folds another partition's SaveState-format state into the
// current group windows (repartitioning a parallel region narrower: the
// surviving replicas absorb the removed replicas' groups). Overlapping
// keys concatenate and re-sort their windows by sample time, so the
// expiry scan in Process keeps seeing a time-ordered window.
func (a *aggregate) MergeState(d *ckpt.Decoder) error {
	n := d.Uint()
	if err := d.Err(); err != nil {
		return err
	}
	if a.groups == nil {
		a.groups = make(map[string][]sample, min(n, uint64(d.Remaining()/2)))
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k := d.Str()
		m := d.Uint()
		win := a.groups[k]
		merged := len(win) > 0
		for j := uint64(0); j < m && d.Err() == nil; j++ {
			at := d.Time()
			v := d.Float()
			win = append(win, sample{at: at, v: v})
		}
		if d.Err() == nil {
			if merged {
				sort.Slice(win, func(x, y int) bool { return win[x].at.Before(win[y].at) })
			}
			a.groups[k] = win
		}
	}
	return d.Err()
}

// SplitState writes, in SaveState format, only the groups that
// opapi.PartitionOf assigns to partition part of width. The hash input
// matches what the region's hash split computes per tuple for a string
// key attribute (iv reads as zero when the attribute is not an int), so
// a key's window lands on the replica its tuples will keep reaching.
func (a *aggregate) SplitState(e *ckpt.Encoder, part, width int) error {
	keys := make([]string, 0, len(a.groups))
	for k := range a.groups {
		if opapi.PartitionOf(k, 0, width) == part {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	e.PutUint(uint64(len(keys)))
	for _, k := range keys {
		e.PutStr(k)
		win := a.groups[k]
		e.PutUint(uint64(len(win)))
		for _, s := range win {
			e.PutTime(s.at)
			e.PutFloat(s.v)
		}
	}
	return nil
}
