package ops

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// filter passes tuples matching a single-attribute predicate and counts
// discards in the custom metric "nTuplesDropped" — the paper's example of
// an operator-specific custom metric (§2.1).
//
// Parameters:
//
//	attr  string  attribute to test
//	op    string  eq | ne | lt | le | gt | ge | contains (default eq)
//	value string  comparison value (parsed per attribute type)
type filter struct {
	opapi.Base
	ctx  opapi.Context
	pred func(tuple.Tuple) bool
	pass []tuple.Tuple // ProcessBatch's scratch, cleared after each run
}

func (f *filter) Open(ctx opapi.Context) error {
	f.ctx = ctx
	cfg := ctx.Params().Bind()
	op := cfg.Enum("op", "eq", comparisonOps...)
	attr, value := cfg.Str("attr", ""), cfg.Str("value", "")
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("Filter %s: %w", ctx.Name(), err)
	}
	pred, err := buildPredicate(ctx.InputSchema(0), attr, op, value)
	if err != nil {
		return fmt.Errorf("Filter %s: %w", ctx.Name(), err)
	}
	f.pred = pred
	return nil
}

func (f *filter) Process(port int, t tuple.Tuple) error {
	if f.pred(t) {
		return f.ctx.Submit(0, t)
	}
	f.ctx.CustomMetric(MetricTuplesDropped).Inc()
	return nil
}

// ProcessBatch runs the compiled predicate over the whole run, submits
// the passing tuples as one run and accounts discards once.
func (f *filter) ProcessBatch(port int, b *tuple.Batch) error {
	var err error
	f.pass, err = passRun(f.ctx, f.pred, b, f.pass)
	return err
}

// passRun submits, as one run, the tuples of b that pred passes, and
// counts the rest on MetricTuplesDropped; pass is the caller's scratch,
// returned cleared.
func passRun(ctx opapi.Context, pred func(tuple.Tuple) bool, b *tuple.Batch, pass []tuple.Tuple) ([]tuple.Tuple, error) {
	for _, t := range b.Tuples() {
		if pred(t) {
			pass = append(pass, t)
		}
	}
	if dropped := b.Len() - len(pass); dropped > 0 {
		ctx.CustomMetric(MetricTuplesDropped).Add(int64(dropped))
	}
	err := opapi.SubmitAll(ctx, 0, pass)
	clear(pass)
	return pass[:0], err
}

// dynamicFilter is a filter whose predicate can be replaced at runtime by
// an orchestrator control command — the paper's example of a local,
// operator-level adaptation the orchestrator complements rather than
// replaces (§3). Command "setPredicate" takes args attr/op/value.
type dynamicFilter struct {
	opapi.Base
	ctx  opapi.Context
	mu   sync.Mutex
	pred func(tuple.Tuple) bool
	pass []tuple.Tuple // ProcessBatch's scratch, cleared after each run
}

func (f *dynamicFilter) Open(ctx opapi.Context) error {
	f.ctx = ctx
	cfg := ctx.Params().Bind()
	op := cfg.Enum("op", "eq", comparisonOps...)
	attr, value := cfg.Str("attr", ""), cfg.Str("value", "")
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("DynamicFilter %s: %w", ctx.Name(), err)
	}
	pred, err := buildPredicate(ctx.InputSchema(0), attr, op, value)
	if err != nil {
		return fmt.Errorf("DynamicFilter %s: %w", ctx.Name(), err)
	}
	f.pred = pred
	return nil
}

func (f *dynamicFilter) Process(port int, t tuple.Tuple) error {
	f.mu.Lock()
	pass := f.pred(t)
	f.mu.Unlock()
	if pass {
		return f.ctx.Submit(0, t)
	}
	f.ctx.CustomMetric(MetricTuplesDropped).Inc()
	return nil
}

// ProcessBatch snapshots the predicate once per batch — one lock
// acquisition instead of one per tuple; a concurrent setPredicate takes
// effect at the next batch boundary, which per-tuple delivery never
// promised tighter than anyway.
func (f *dynamicFilter) ProcessBatch(port int, b *tuple.Batch) error {
	f.mu.Lock()
	pred := f.pred
	f.mu.Unlock()
	var err error
	f.pass, err = passRun(f.ctx, pred, b, f.pass)
	return err
}

func (f *dynamicFilter) Control(cmd string, args map[string]string) error {
	if cmd != "setPredicate" {
		return fmt.Errorf("DynamicFilter: unknown command %q", cmd)
	}
	pred, err := buildPredicate(f.ctx.InputSchema(0), args["attr"], args["op"], args["value"])
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.pred = pred
	f.mu.Unlock()
	return nil
}

// buildPredicate compiles a simple typed comparison: the attribute name
// resolves to a FieldRef once here, so the returned predicate reads the
// tuple's typed storage directly with no per-tuple name lookup. An empty
// attr yields an always-true predicate.
func buildPredicate(schema *tuple.Schema, attr, op, value string) (func(tuple.Tuple) bool, error) {
	if attr == "" {
		return func(tuple.Tuple) bool { return true }, nil
	}
	ref, err := schema.Ref(attr)
	if err != nil {
		return nil, fmt.Errorf("no attribute %q in %s", attr, schema)
	}
	switch ref.Type() {
	case tuple.Int:
		want, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: bad int value %q", attr, value)
		}
		holds, err := ordered[int64](op)
		if err != nil {
			return nil, err
		}
		return func(t tuple.Tuple) bool { return holds(ref.Int(t), want) }, nil
	case tuple.Float:
		want, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: bad float value %q", attr, value)
		}
		holds, err := ordered[float64](op)
		if err != nil {
			return nil, err
		}
		return func(t tuple.Tuple) bool { return holds(ref.Float(t), want) }, nil
	case tuple.String:
		switch op {
		case "eq":
			return func(t tuple.Tuple) bool { return ref.Str(t) == value }, nil
		case "ne":
			return func(t tuple.Tuple) bool { return ref.Str(t) != value }, nil
		case "contains":
			return func(t tuple.Tuple) bool { return strings.Contains(ref.Str(t), value) }, nil
		default:
			return nil, fmt.Errorf("operator %q unsupported for strings", op)
		}
	case tuple.Bool:
		want, err := strconv.ParseBool(value)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: bad bool value %q", attr, value)
		}
		switch op {
		case "eq":
			return func(t tuple.Tuple) bool { return ref.Bool(t) == want }, nil
		case "ne":
			return func(t tuple.Tuple) bool { return ref.Bool(t) != want }, nil
		default:
			return nil, fmt.Errorf("operator %q unsupported for bools", op)
		}
	default:
		return nil, fmt.Errorf("attribute %q: unsupported type for filtering", attr)
	}
}

// ordered returns the comparison that op names, over an ordered type.
func ordered[T cmp.Ordered](op string) (func(a, b T) bool, error) {
	switch op {
	case "eq":
		return func(a, b T) bool { return a == b }, nil
	case "ne":
		return func(a, b T) bool { return a != b }, nil
	case "lt":
		return func(a, b T) bool { return a < b }, nil
	case "le":
		return func(a, b T) bool { return a <= b }, nil
	case "gt":
		return func(a, b T) bool { return a > b }, nil
	case "ge":
		return func(a, b T) bool { return a >= b }, nil
	default:
		return nil, fmt.Errorf("unknown comparison %q", op)
	}
}

// functor projects each input tuple onto the output schema (matching
// attribute names copy over) and optionally applies arithmetic to one
// attribute.
//
// Parameters:
//
//	addInt   string  "attr:delta"  add delta to an int64 attribute
//	scale    string  "attr:factor" multiply a float64 attribute
//	setStr   string  "attr:value"  overwrite a string attribute
type functor struct {
	opapi.Base
	ctx      opapi.Context
	addRef   tuple.FieldRef
	addDelta int64
	scaleRef tuple.FieldRef
	scaleBy  float64
	setRef   tuple.FieldRef
	setVal   string
	proj     tuple.Projection // the attributes input and output share
	outs     []tuple.Tuple    // ProcessBatch's header scratch, cleared after each run
}

func (f *functor) Open(ctx opapi.Context) error {
	f.ctx = ctx
	cfg := ctx.Params().Bind()
	in, out := ctx.InputSchema(0), ctx.OutputSchema(0)
	if spec := cfg.Str("addInt", ""); spec != "" {
		attr, val, err := splitSpec(spec)
		if err != nil {
			return fmt.Errorf("Functor %s: addInt: %w", ctx.Name(), err)
		}
		if f.addRef, err = out.TypedRef(attr, tuple.Int); err != nil {
			return fmt.Errorf("Functor %s: addInt: %w", ctx.Name(), err)
		}
		if f.addDelta, err = strconv.ParseInt(val, 10, 64); err != nil {
			return fmt.Errorf("Functor %s: addInt: %w", ctx.Name(), err)
		}
	}
	if spec := cfg.Str("scale", ""); spec != "" {
		attr, val, err := splitSpec(spec)
		if err != nil {
			return fmt.Errorf("Functor %s: scale: %w", ctx.Name(), err)
		}
		if f.scaleRef, err = out.TypedRef(attr, tuple.Float); err != nil {
			return fmt.Errorf("Functor %s: scale: %w", ctx.Name(), err)
		}
		if f.scaleBy, err = strconv.ParseFloat(val, 64); err != nil {
			return fmt.Errorf("Functor %s: scale: %w", ctx.Name(), err)
		}
	}
	if spec := cfg.Str("setStr", ""); spec != "" {
		attr, val, err := splitSpec(spec)
		if err != nil {
			return fmt.Errorf("Functor %s: setStr: %w", ctx.Name(), err)
		}
		if f.setRef, err = out.TypedRef(attr, tuple.String); err != nil {
			return fmt.Errorf("Functor %s: setStr: %w", ctx.Name(), err)
		}
		f.setVal = val
	}
	f.proj = in.ProjectTo(out)
	return nil
}

func splitSpec(spec string) (attr, value string, err error) {
	i := strings.IndexByte(spec, ':')
	if i <= 0 {
		return "", "", fmt.Errorf("malformed spec %q (want attr:value)", spec)
	}
	return spec[:i], spec[i+1:], nil
}

func (f *functor) Process(port int, t tuple.Tuple) error {
	out := tuple.New(f.ctx.OutputSchema(0))
	f.project(out, t)
	return f.ctx.Submit(0, out)
}

// ProcessBatch projects the whole run into one leased block: SubmitAll
// queues the outputs as one run under a hold of the carrier's, so the
// birth hold is dropped on return and the block comes back once
// downstream is done with the run; the headers are copied by SubmitAll
// and reused here.
func (f *functor) ProcessBatch(port int, b *tuple.Batch) error {
	outs, lease := tuple.Lease(f.ctx.OutputSchema(0), f.outs, b.Len())
	f.outs = outs
	defer lease.Release()
	defer clear(outs)
	for i, in := range b.Tuples() {
		f.project(outs[i], in)
	}
	return opapi.SubmitAll(f.ctx, 0, outs)
}

// project fills out from in: the shared attributes' slot moves, then the
// arithmetic specs. Process and ProcessBatch share it.
func (f *functor) project(out, in tuple.Tuple) {
	f.proj.Apply(out, in)
	if f.addRef.Valid() {
		f.addRef.SetInt(out, f.addRef.Int(out)+f.addDelta)
	}
	if f.scaleRef.Valid() {
		f.scaleRef.SetFloat(out, f.scaleRef.Float(out)*f.scaleBy)
	}
	if f.setRef.Valid() {
		f.setRef.SetStr(out, f.setVal)
	}
}

// split routes each input tuple to one (or all) of its output ports.
//
// Parameters:
//
//	mode string  roundrobin (default) | duplicate | hash
//	attr string  hashing attribute for mode=hash
type split struct {
	opapi.Base
	ctx    opapi.Context
	mode   string
	attr   string
	strRef tuple.FieldRef // set when attr is a string attribute
	intRef tuple.FieldRef // set when attr is an int attribute
	next   int
}

func (s *split) Open(ctx opapi.Context) error {
	s.ctx = ctx
	cfg := ctx.Params().Bind()
	s.mode = cfg.Enum("mode", "roundrobin", splitModes...)
	s.attr = cfg.Str("attr", "")
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("Split %s: %w", ctx.Name(), err)
	}
	switch s.mode {
	case "roundrobin", "duplicate":
	case "hash":
		if s.attr == "" {
			return fmt.Errorf("Split %s: mode=hash needs attr", ctx.Name())
		}
		// Resolve the hashing attribute once; mistyped or missing slots
		// hash as zero values, as the name-based API used to.
		if ref, err := ctx.InputSchema(0).TypedRef(s.attr, tuple.String); err == nil {
			s.strRef = ref
		}
		if ref, err := ctx.InputSchema(0).TypedRef(s.attr, tuple.Int); err == nil {
			s.intRef = ref
		}
	default:
		return fmt.Errorf("Split %s: unknown mode %q", ctx.Name(), s.mode)
	}
	return nil
}

func (s *split) Process(port int, t tuple.Tuple) error {
	n := s.ctx.NumOutputs()
	switch s.mode {
	case "duplicate":
		for i := 0; i < n; i++ {
			if err := s.ctx.Submit(i, t.Clone()); err != nil {
				return err
			}
		}
		return nil
	case "hash":
		// opapi.PartitionOf is the one routing function: parallel-region
		// state migration (SplitState) hashes keys through the same code,
		// so a migrated key's tuples keep landing on the replica that now
		// holds the key's state.
		var sv string
		var iv int64
		if s.strRef.Valid() {
			sv = s.strRef.Str(t)
		}
		if s.intRef.Valid() {
			iv = s.intRef.Int(t)
		}
		return s.ctx.Submit(opapi.PartitionOf(sv, iv, n), t)
	default: // roundrobin
		i := s.next % n
		s.next++
		return s.ctx.Submit(i, t)
	}
}

// merge forwards tuples from all input ports to output port 0, preserving
// per-port arrival order.
type merge struct {
	opapi.Base
	ctx opapi.Context
}

func (m *merge) Open(ctx opapi.Context) error { m.ctx = ctx; return nil }

func (m *merge) Process(port int, t tuple.Tuple) error { return m.ctx.Submit(0, t) }

// ProcessBatch forwards the chunk as one run, so a merge between two
// batch operators keeps the frame intact.
func (m *merge) ProcessBatch(port int, b *tuple.Batch) error {
	return opapi.SubmitAll(m.ctx, 0, b.Tuples())
}
