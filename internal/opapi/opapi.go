// Package opapi defines the operator SPI: the interfaces an operator
// implements, the context the PE runtime hands it, parameter access, and
// the operator-kind registry the compiler and runtime resolve kinds
// against (the equivalent of SPL's operator model).
package opapi

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/metrics"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

// Params are operator configuration values from the ADL (merged from the
// application builder and submission-time parameters).
type Params map[string]string

// lookup returns the raw value, treating absent and empty entries as
// "use the default".
func (p Params) lookup(key string) (string, bool) {
	v, ok := p[key]
	return v, ok && v != ""
}

// Binder is the one typed way to read parameters. It accumulates
// binding errors across several reads, so an operator's Open binds its
// whole configuration and checks once:
//
//	cfg := ctx.Params().Bind()
//	count := cfg.Int("count", 0)
//	period := cfg.Duration("period", 0)
//	if err := cfg.Err(); err != nil { return err }
//
// Every accessor returns def when the key is absent or empty, and def
// plus a recorded error when the value is present but malformed.
type Binder struct {
	p    Params
	errs []error
}

// Bind starts an error-accumulating binding pass over the parameters.
func (p Params) Bind() *Binder { return &Binder{p: p} }

// Str returns the string value for key, or def when absent or empty —
// the same "empty means use the default" rule as every other binding
// accessor, so a submission-time template substituting to "" falls back
// instead of keying on the empty string.
func (b *Binder) Str(key, def string) string {
	if v, ok := b.p.lookup(key); ok {
		return v
	}
	return def
}

// Int binds an integer parameter.
func (b *Binder) Int(key string, def int64) int64 {
	return bind(b, key, def, "int64", func(v string) (int64, error) { return strconv.ParseInt(v, 10, 64) })
}

// Float binds a float parameter.
func (b *Binder) Float(key string, def float64) float64 {
	return bind(b, key, def, "float64", func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

// Bool binds a boolean parameter.
func (b *Binder) Bool(key string, def bool) bool {
	return bind(b, key, def, "boolean", strconv.ParseBool)
}

// Duration binds a duration parameter.
func (b *Binder) Duration(key string, def time.Duration) time.Duration {
	return bind(b, key, def, "duration", time.ParseDuration)
}

// Enum binds an enumerated parameter; a value outside allowed is an
// error.
func (b *Binder) Enum(key, def string, allowed ...string) string {
	v, ok := b.p.lookup(key)
	if !ok {
		return def
	}
	if !slices.Contains(allowed, v) {
		b.errs = append(b.errs, fmt.Errorf("param %q: value %q not in {%s}", key, v, strings.Join(allowed, ", ")))
		return def
	}
	return v
}

// bind parses key's value, returning def when it is absent or empty and
// recording an error when parse rejects it.
func bind[T any](b *Binder, key string, def T, typ string, parse func(string) (T, error)) T {
	v, ok := b.p.lookup(key)
	if !ok {
		return def
	}
	x, err := parse(v)
	if err != nil {
		b.errs = append(b.errs, fmt.Errorf("param %q: invalid %s value %q", key, typ, v))
		return def
	}
	return x
}

// Err returns every binding error accumulated so far, joined, or nil.
func (b *Binder) Err() error { return errors.Join(b.errs...) }

// Clone returns an independent copy of the parameter map.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Context is the runtime environment the PE provides to an operator
// instance. All methods are safe to call from the operator's processing
// goroutine; Submit may be called from a Source's Run goroutine.
type Context interface {
	// Name returns the fully qualified logical instance name.
	Name() string
	// Params returns the operator's configuration.
	Params() Params
	// NumOutputs returns the number of output ports.
	NumOutputs() int
	// InputSchema returns the schema of input port i.
	InputSchema(i int) *tuple.Schema
	// OutputSchema returns the schema of output port i.
	OutputSchema(i int) *tuple.Schema
	// Submit sends a tuple on output port i. From a processing goroutine
	// the tuple is forwarded once the current chunk of input has been
	// processed; from a Source's Run goroutine, at once. An operator
	// that holds several tuples hands them over together with SubmitAll.
	Submit(i int, t tuple.Tuple) error
	// SubmitMark sends a punctuation on output port i. Final marks are
	// normally managed by the runtime; sources emit them via Run's return.
	SubmitMark(i int, m tuple.Mark) error
	// CustomMetric returns (creating if needed) a custom metric counter,
	// visible to SRM and hence to orchestrator metric scopes (§2.1).
	CustomMetric(name string) *metrics.Counter
	// Clock returns the platform clock (virtual in tests).
	Clock() vclock.Clock
	// Done is closed when the containing PE stops or crashes. Operators
	// performing long waits must select on it (or use Sleep) so shutdown
	// is never blocked behind a pending clock wait.
	Done() <-chan struct{}
}

// RunSubmitter is an optional capability of a Context: an operator that
// holds a run of tuples for one port — a source draining an external
// buffer, a batch operator's outputs for one ProcessBatch call — hands
// it over through SubmitAll, which uses SubmitRun where the Context has
// it (the PE's does). A batch operator loses nothing by it: its chunk
// is the unit of failure, so a run refused whole drops no tuple that a
// Submit per tuple would have delivered.
type RunSubmitter interface {
	// SubmitRun sends ts, in order, on output port i as one hand-over:
	// every tuple gets Submit's checks, a run with a bad tuple is
	// refused whole, and a source's run is forwarded at once as one
	// unit. ts remains the caller's.
	SubmitRun(i int, ts []tuple.Tuple) error
}

// SubmitAll sends ts, in order, on output port i: one SubmitRun where
// ctx is a RunSubmitter, a Submit per tuple where it is not.
func SubmitAll(ctx Context, i int, ts []tuple.Tuple) error {
	if rs, ok := ctx.(RunSubmitter); ok {
		return rs.SubmitRun(i, ts)
	}
	for _, t := range ts {
		if err := ctx.Submit(i, t); err != nil {
			return err
		}
	}
	return nil
}

// Sleep waits d on the clock, returning early with false when stop
// closes first. Operators use it instead of Clock().Sleep so that PE
// shutdown (and tests driving a manual clock) never deadlock behind an
// uninterruptible wait.
func Sleep(clock vclock.Clock, d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-clock.After(d):
		return true
	case <-stop:
		return false
	}
}

// SleepUntil waits on the clock until at, returning early with false
// when stop closes first; an instant already past returns at once.
func SleepUntil(clock vclock.Clock, at time.Time, stop <-chan struct{}) bool {
	return Sleep(clock, at.Sub(clock.Now()), stop)
}

// Generate is a periodic source's Run loop. From the cursor's value on,
// until stop closes or the cursor reaches count (0 = unbounded), it
// fills tuple i of output port 0's schema and submits it; a Submit
// error ends the loop. The cursor passes i only after the submit, so a
// checkpoint taken between the two re-emits the in-flight tuple on
// restart instead of skipping it. It paces on start + (i+1−first)·period,
// first being the cursor at the call, so a wake-up that runs late
// shortens the next wait instead of adding up, and no tick is ever
// skipped. A zero period reads no clock.
func Generate(ctx Context, stop <-chan struct{}, cursor *atomic.Int64, count int64, period time.Duration, fill func(i int64, t tuple.Tuple)) error {
	schema, first := ctx.OutputSchema(0), cursor.Load()
	var start time.Time
	if period > 0 {
		start = ctx.Clock().Now()
	}
	for i := first; count == 0 || i < count; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		t := tuple.New(schema)
		fill(i, t)
		if err := ctx.Submit(0, t); err != nil {
			return err
		}
		cursor.Store(i + 1)
		if period > 0 && !SleepUntil(ctx.Clock(), start.Add(time.Duration(i+1-first)*period), stop) {
			return nil
		}
	}
	return nil
}

// Operator is a stream operator instance. The PE runtime serialises all
// Process/ProcessMark calls for one instance, so implementations need no
// internal locking unless they share state elsewhere.
//
// A returned error is treated as an uncaught exception: it crashes the
// containing PE (as in the paper's PE failure scenarios). Recoverable
// conditions should be handled internally and, if worth surfacing,
// reflected in a custom metric.
type Operator interface {
	// Open is called once before any tuple delivery.
	Open(ctx Context) error
	// Process handles one tuple arriving on an input port. The retain
	// rule: t's storage belongs to its frame and is reused after the
	// call (for a batch operator, the ProcessBatch call). Submitting t
	// is safe, and so is keeping a string or number read out of it;
	// keeping t itself takes t.Clone(). Under the race detector a
	// recycled frame is poisoned, so breaking the rule fails a test.
	Process(port int, t tuple.Tuple) error
	// ProcessMark handles a punctuation arriving on an input port. Final
	// marks are delivered once per port; forwarding is the runtime's job.
	ProcessMark(port int, m tuple.Mark) error
	// Close is called once when the PE shuts down cleanly.
	Close() error
}

// BatchOperator is an opt-in extension of Operator for columnar batch
// execution: the PE runtime detects the interface at container assembly
// and hands each chunk its consume loop cuts from the input queue —
// consecutive tuples of one port, a transport frame's worth at most,
// as few as one when the queue is idle — to ProcessBatch as one call,
// instead of unrolling it into per-tuple Process calls. Punctuation
// never enters a batch; marks interleave in position through
// ProcessMark as usual.
//
// Contract:
//
//   - ProcessBatch(port, b) must be semantically equivalent to calling
//     Process(port, t) for each tuple of b in order. Process stays
//     mandatory (the compiler enforces the pair, since BatchOperator
//     embeds Operator): it is the operator's meaning, and what callers
//     outside the PE runtime use.
//   - The Batch and the slice Tuples returns are valid only for the
//     duration of the call; the runtime reuses the view. The tuples
//     follow Process's retain rule: keeping one past the call requires
//     Clone, submitting it downstream is safe.
//   - Submit/SubmitMark coalesce for the length of a chunk, for every
//     operator with inputs, batch-capable or not: outputs are buffered
//     and forwarded when the chunk is done, so intra-PE hops stay
//     batched down a whole fused chain.
//   - An error crashes the containing PE, from ProcessBatch and Process
//     alike, and the chunk is the unit of failure: its buffered outputs
//     are discarded, none of its tuples count as processed, and it and
//     everything queued behind it are accounted as dropped on the PE's
//     nTuplesDropped counter.
type BatchOperator interface {
	Operator
	ProcessBatch(port int, b *tuple.Batch) error
}

// Source is implemented by operators with no input ports. The runtime
// calls Run on a dedicated goroutine; it should emit tuples via the
// context until stop is closed or the stream is exhausted. Returning nil
// after exhaustion emits a final punctuation downstream.
type Source interface {
	Operator
	Run(stop <-chan struct{}) error
}

// Controllable is implemented by operators that accept orchestrator
// control commands (e.g. a dynamic filter changing its predicate at
// runtime, §3). Control calls arrive on the processing goroutine.
type Controllable interface {
	Control(cmd string, args map[string]string) error
}

// StatefulOperator is implemented by operators whose in-memory state
// should survive a PE restart. The PE checkpoint driver periodically
// (and on demand) calls SaveState to serialise the state into a
// snapshot section; when a restarted PE finds a snapshot, it calls
// RestoreState after Open and before any tuple delivery.
//
// Contract:
//
//   - SaveState writes the state through the encoder; RestoreState
//     reads the same values back in the same order and must fully
//     overwrite the operator's state (a restore never merges).
//   - For operators with input ports both calls run on the processing
//     goroutine, serialised with Process/ProcessMark/Control. For
//     sources, SaveState may run concurrently with Run, so shared
//     state needs the operator's own synchronisation (an atomic
//     cursor is usually enough).
//   - Only state the operator writes is captured: queued input items,
//     in-flight tuples, and built-in metrics are not part of a
//     snapshot (restore-based recovery still loses the tuples in
//     flight at the crash, as §5.2's partial fault tolerance allows).
//   - A RestoreState error (or a decoder error latched during it)
//     discards the section and the operator starts fresh; it must not
//     leave itself half-restored in a way Open did not already handle.
type StatefulOperator interface {
	Operator
	SaveState(enc *ckpt.Encoder) error
	RestoreState(dec *ckpt.Decoder) error
}

// PartitionedStateOperator is implemented by stateful operators whose
// state is keyed by the attribute their OpModel.PartitionKey declares,
// which makes the state migratable across width changes of a parallel
// region (SAM's ResizeRegion actuation).
//
// Both methods speak the SaveState wire format and must work on a
// fresh, never-Opened instance: migration happens between PE
// incarnations, on a scratch instance that only ever transcodes state.
//
//   - MergeState folds another partition's SaveState-format state into
//     this instance (unlike RestoreState, which overwrites). Keys never
//     collide across well-formed partitions, but a merge must tolerate
//     overlap by combining rather than dropping.
//   - SplitState writes, in SaveState format, only the keys this
//     instance owns that PartitionOf(key, ...) assigns to partition
//     part of width — so restoring each partition's output on its new
//     replica reconstructs the region's state exactly once.
type PartitionedStateOperator interface {
	StatefulOperator
	MergeState(dec *ckpt.Decoder) error
	SplitState(enc *ckpt.Encoder, part, width int) error
}

// PartitionOf maps a tuple's partition-key value to a replica index in
// a parallel region of the given width. It is the single routing
// function shared by the auto-inserted hash split (per-tuple) and by
// SplitState implementations (per-key, at migration time): both sides
// must agree or a key's tuples would land on a replica that does not
// hold the key's state.
//
// The key value is hashed as the string form sv, a '|' separator, and
// the decimal form of iv — FNV-1a over that byte sequence. String-typed
// keys pass iv = 0 (an unresolvable int attribute reads as zero);
// int-typed keys pass sv = "".
func PartitionOf(sv string, iv int64, width int) int {
	if width <= 1 {
		return 0
	}
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(sv); i++ {
		h ^= uint32(sv[i])
		h *= prime32
	}
	h ^= '|'
	h *= prime32
	var num [20]byte
	for _, c := range strconv.AppendInt(num[:0], iv, 10) {
		h ^= uint32(c)
		h *= prime32
	}
	return int(h) % width
}

// Base provides no-op defaults so operators only implement what they
// need.
type Base struct{}

// Open implements Operator.
func (Base) Open(Context) error { return nil }

// Process implements Operator.
func (Base) Process(int, tuple.Tuple) error { return nil }

// ProcessMark implements Operator.
func (Base) ProcessMark(int, tuple.Mark) error { return nil }

// Close implements Operator.
func (Base) Close() error { return nil }

// Factory constructs a fresh operator instance of some kind.
type Factory func() Operator

// Registry maps operator kinds to factories and their declarative
// descriptors. The platform uses Default; tests may build private
// registries.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]registryEntry
}

type registryEntry struct {
	factory Factory
	model   *OpModel
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{entries: make(map[string]registryEntry)} }

// Register adds a kind without a descriptor: the kind resolves at
// runtime but the compiler cannot validate its configuration. Prefer
// RegisterOp. Registering a duplicate kind panics, since kind
// registration happens at init time and a collision is a programming
// error.
func (r *Registry) Register(kind string, f Factory) { r.RegisterOp(kind, f, nil) }

// RegisterOp adds a kind together with its operator model. It calls
// the factory once, at registration, so a factory must have no side
// effects. It panics when that instance is nil or has a method named
// like an optional SPI's that does not satisfy that SPI (see checkSPI),
// and when the model (if non-nil) is malformed: like a duplicate kind,
// each is a programming error in init-time code. The registry fills in
// model.Kind and owns the model afterwards; callers must not mutate it.
func (r *Registry) RegisterOp(kind string, f Factory, model *OpModel) {
	if kind == "" || f == nil {
		panic("opapi: empty kind or nil factory")
	}
	op := f()
	if op == nil {
		panic(fmt.Sprintf("opapi: kind %q: factory returned nil", kind))
	}
	if err := checkSPI(op); err != nil {
		panic(fmt.Sprintf("opapi: kind %q: %v", kind, err))
	}
	if model != nil {
		if model.Kind == "" {
			model.Kind = kind
		}
		if err := model.check(); err != nil {
			panic(fmt.Sprintf("opapi: kind %q (%T): %v", kind, op, err))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[kind]; dup {
		panic(fmt.Sprintf("opapi: operator kind %q registered twice", kind))
	}
	r.entries[kind] = registryEntry{factory: f, model: model}
}

// optionalSPIs are the interfaces the PE selects by type assertion,
// each with the method names that mark an attempt to implement it.
var optionalSPIs = []struct {
	iface   reflect.Type
	methods []string
}{
	{reflect.TypeFor[BatchOperator](), []string{"ProcessBatch"}},
	{reflect.TypeFor[StatefulOperator](), []string{"SaveState", "RestoreState"}},
	{reflect.TypeFor[PartitionedStateOperator](), []string{"MergeState", "SplitState"}},
}

// checkSPI rejects an operator with a method named like an optional
// SPI's that does not satisfy that SPI: it compiles, but the PE's type
// assertion never selects it. The names are looked up on *T as well as
// T, so a value whose SPI methods have pointer receivers is caught too.
func checkSPI(op Operator) error {
	t := reflect.TypeOf(op)
	pt := t
	if t.Kind() != reflect.Pointer {
		pt = reflect.PointerTo(t)
	}
	for _, spi := range optionalSPIs {
		if t.Implements(spi.iface) {
			continue
		}
		for _, m := range spi.methods {
			if _, ok := pt.MethodByName(m); ok {
				return fmt.Errorf("type %v has %s but does not implement opapi.%s", t, m, spi.iface.Name())
			}
		}
	}
	return nil
}

// New instantiates an operator of the given kind.
func (r *Registry) New(kind string) (Operator, error) {
	r.mu.RLock()
	e, ok := r.entries[kind]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("opapi: unknown operator kind %q", kind)
	}
	return e.factory(), nil
}

// Registered reports whether the kind is known to the registry.
func (r *Registry) Registered(kind string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[kind]
	return ok
}

// Model returns the descriptor registered for kind, or nil when the
// kind is unknown or was registered without one.
func (r *Registry) Model(kind string) *OpModel {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[kind].model
}

// Kinds returns the registered kind names, sorted.
func (r *Registry) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	kinds := make([]string, 0, len(r.entries))
	for k := range r.entries {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// Default is the process-wide registry the built-in operator library
// registers into.
var Default = NewRegistry()
