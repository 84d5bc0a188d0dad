// Package compiler turns application builder programs into ADL artifacts,
// playing the role of the SPL compiler in §2.1: it assembles the logical
// graph (operators, composite instances, stream connections, exports and
// imports), expands declared parallel regions (OpHandle.Parallel) into
// hash-split / replica / merge sub-graphs, and partitions operators into
// PEs according to the developer's partition constraints and the
// selected fusion strategy. A logical operator is therefore not always
// one runtime instance: a parallel declaration compiles to width
// replicated instances in separate PEs, bracketed by an auto-inserted
// split and merge. Host placement happens later, at submission time,
// inside SAM — matching the paper's split between compile-time
// partitioning and runtime placement.
package compiler

import (
	"fmt"
	"strings"

	"streamorca/internal/adl"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// AppBuilder accumulates an application definition. Builders are not safe
// for concurrent use; errors accumulate and surface from Build.
type AppBuilder struct {
	name      string
	ops       []*OpHandle
	byName    map[string]*OpHandle
	comps     []adl.CompositeInstance
	conns     []adl.Connection
	exports   []adl.Export
	imports   []adl.Import
	pools     []adl.HostPool
	poolNames map[string]bool
	stack     []string // composite instance path
	regions   []adl.Region
	errs      []error
}

// NewApp starts a builder for an application with the given name.
func NewApp(name string) *AppBuilder {
	b := &AppBuilder{name: name, byName: make(map[string]*OpHandle), poolNames: make(map[string]bool)}
	if name == "" {
		b.errs = append(b.errs, fmt.Errorf("compiler: empty application name"))
	}
	return b
}

// OpHandle is a fluent reference to one operator under construction.
type OpHandle struct {
	b         *AppBuilder
	name      string // fully qualified
	kind      string
	composite string
	params    opapi.Params
	inputs    []*tuple.Schema
	outputs   []*tuple.Schema
	coloc     string // partition colocation tag
	isolate   bool   // own PE
	pool      string // host pool for the PE this operator lands in
	isolatePE bool   // demand exclusive host for its PE
	parallel  int    // parallel-region width; 0 = not a region
}

// Name returns the operator's fully qualified instance name.
func (h *OpHandle) Name() string { return h.name }

// AddOperator declares an operator of the given kind. The instance name is
// qualified by the enclosing composite path, mirroring SPL's fully
// qualified names (e.g. "comp1.op3").
func (b *AppBuilder) AddOperator(name, kind string) *OpHandle {
	h := &OpHandle{b: b, kind: kind, params: opapi.Params{}}
	if name == "" || kind == "" {
		b.errs = append(b.errs, fmt.Errorf("compiler: operator with empty name or kind"))
		return h
	}
	if len(b.stack) > 0 {
		h.composite = b.stack[len(b.stack)-1]
		h.name = h.composite + "." + name
	} else {
		h.name = name
	}
	if _, dup := b.byName[h.name]; dup {
		b.errs = append(b.errs, fmt.Errorf("compiler: duplicate operator %q", h.name))
		return h
	}
	b.byName[h.name] = h
	b.ops = append(b.ops, h)
	return h
}

// In declares the operator's input port schemas in port order.
func (h *OpHandle) In(schemas ...*tuple.Schema) *OpHandle {
	h.inputs = schemas
	return h
}

// Out declares the operator's output port schemas in port order.
func (h *OpHandle) Out(schemas ...*tuple.Schema) *OpHandle {
	h.outputs = schemas
	return h
}

// Param sets one configuration parameter.
func (h *OpHandle) Param(key, value string) *OpHandle {
	h.params[key] = value
	return h
}

// Colocate tags the operator with a partition colocation group: all
// operators sharing a tag are fused into the same PE (§2.1's partition
// constraints).
func (h *OpHandle) Colocate(tag string) *OpHandle {
	h.coloc = tag
	return h
}

// Isolate places the operator alone in its own PE, so restarting it never
// cascades into logically unrelated operators (§4.3).
func (h *OpHandle) Isolate() *OpHandle {
	h.isolate = true
	return h
}

// Pool requests that the PE containing this operator be placed on hosts of
// the named host pool.
func (h *OpHandle) Pool(name string) *OpHandle {
	h.pool = name
	return h
}

// IsolateHost demands that the PE containing this operator run on a host
// with no other PE of the same application.
func (h *OpHandle) IsolateHost() *OpHandle {
	h.isolatePE = true
	return h
}

// Parallel declares the operator as a key-partitioned parallel region of
// the given initial width — the SPL "user-defined parallelism"
// annotation. Build replaces the operator with width replicas wrapped in
// an auto-inserted hash split and merge, each in its own PE, and records
// the expansion in the ADL's Regions so SAM's ResizeRegion actuation can
// change the width at runtime.
//
// The operator's kind must declare an OpModel.PartitionKey and the
// instance must set that parameter: its value names the tuple attribute
// the split hashes on, which is the attribute the kind's per-key state
// is keyed by. The operator must have exactly one input and one output
// port and may not be colocated or host-isolated.
func (h *OpHandle) Parallel(width int) *OpHandle {
	h.parallel = width
	return h
}

// BeginComposite opens a composite operator instance of the given type;
// operators added until EndComposite belong to it. Instance names nest
// ("outer.inner").
func (b *AppBuilder) BeginComposite(kind, instance string) {
	if kind == "" || instance == "" {
		b.errs = append(b.errs, fmt.Errorf("compiler: composite with empty kind or instance"))
		return
	}
	parent := ""
	qualified := instance
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
		qualified = parent + "." + instance
	}
	for _, c := range b.comps {
		if c.Name == qualified {
			b.errs = append(b.errs, fmt.Errorf("compiler: duplicate composite instance %q", qualified))
			return
		}
	}
	b.comps = append(b.comps, adl.CompositeInstance{Name: qualified, Kind: kind, Parent: parent})
	b.stack = append(b.stack, qualified)
}

// EndComposite closes the innermost open composite.
func (b *AppBuilder) EndComposite() {
	if len(b.stack) == 0 {
		b.errs = append(b.errs, fmt.Errorf("compiler: EndComposite without BeginComposite"))
		return
	}
	b.stack = b.stack[:len(b.stack)-1]
}

// Composite runs body inside a composite instance scope; it is the
// reusable-subgraph idiom from Figure 2.
func (b *AppBuilder) Composite(kind, instance string, body func()) {
	b.BeginComposite(kind, instance)
	body()
	b.EndComposite()
}

// Connect adds a stream connection between two operator ports.
func (b *AppBuilder) Connect(from *OpHandle, fromPort int, to *OpHandle, toPort int) {
	if from == nil || to == nil || from.name == "" || to.name == "" {
		b.errs = append(b.errs, fmt.Errorf("compiler: Connect with invalid handles"))
		return
	}
	b.conns = append(b.conns, adl.Connection{FromOp: from.name, FromPort: fromPort, ToOp: to.name, ToPort: toPort})
}

// Export publishes an operator output port to other jobs.
func (b *AppBuilder) Export(h *OpHandle, port int, streamID string, props map[string]string) {
	b.exports = append(b.exports, adl.Export{Operator: h.name, Port: port, StreamID: streamID, Properties: props})
}

// Import subscribes an operator input port to exported streams.
func (b *AppBuilder) Import(h *OpHandle, port int, streamID string, props map[string]string) {
	b.imports = append(b.imports, adl.Import{Operator: h.name, Port: port, StreamID: streamID, Properties: props})
}

// HostPool declares a named host pool for placement.
func (b *AppBuilder) HostPool(p adl.HostPool) {
	if p.Name == "" {
		b.errs = append(b.errs, fmt.Errorf("compiler: host pool with empty name"))
		return
	}
	if b.poolNames[p.Name] {
		b.errs = append(b.errs, fmt.Errorf("compiler: duplicate host pool %q", p.Name))
		return
	}
	b.poolNames[p.Name] = true
	b.pools = append(b.pools, p)
}

// FusionMode selects the partitioning strategy.
type FusionMode int

// Fusion strategies. FuseByTag is the default: colocation groups fuse,
// everything else gets its own PE.
const (
	FuseByTag FusionMode = iota
	FuseNone
	FuseAll
)

// Options configures Build.
type Options struct {
	Fusion FusionMode
	// Registry resolves operator kinds for build-time validation
	// against each kind's operator model; nil means opapi.Default.
	Registry *opapi.Registry
}

// Build assembles, partitions, and validates the ADL. Validation runs
// every operator against its registered operator model (unknown kinds,
// missing/mistyped/out-of-range parameters, port-arity and schema
// constraints) and every connection against the declared port schemas;
// all violations accumulate and surface in one error.
func (b *AppBuilder) Build(opts Options) (*adl.Application, error) {
	if len(b.stack) != 0 {
		b.errs = append(b.errs, fmt.Errorf("compiler: %d unclosed composites", len(b.stack)))
	}
	reg := opts.Registry
	if reg == nil {
		reg = opapi.Default
	}
	b.expandRegions(reg)
	b.validateOperators(reg)
	b.validateEndpoints()
	if len(b.errs) > 0 {
		return nil, joinErrors(b.errs)
	}
	app := &adl.Application{
		Name:       b.name,
		Composites: append([]adl.CompositeInstance(nil), b.comps...),
		Connects:   append([]adl.Connection(nil), b.conns...),
		Exports:    append([]adl.Export(nil), b.exports...),
		Imports:    append([]adl.Import(nil), b.imports...),
		HostPools:  append([]adl.HostPool(nil), b.pools...),
	}
	for _, h := range b.ops {
		op := adl.Operator{Name: h.name, Kind: h.kind, Composite: h.composite, Params: h.params.Clone()}
		for _, s := range h.inputs {
			op.Inputs = append(op.Inputs, adl.Port{Schema: schemaAttrs(s)})
		}
		for _, s := range h.outputs {
			op.Outputs = append(op.Outputs, adl.Port{Schema: schemaAttrs(s)})
		}
		app.Operators = append(app.Operators, op)
	}
	pes, err := partition(b.ops, opts)
	if err != nil {
		return nil, err
	}
	app.PEs = pes
	app.Regions = append([]adl.Region(nil), b.regions...)
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: generated invalid ADL: %w", err)
	}
	return app, nil
}

// validateOperators checks every declared operator against the
// registry: the kind must be registered, and kinds carrying an operator
// model are validated for parameter and port conformance. Violations
// accumulate with operator-qualified messages.
func (b *AppBuilder) validateOperators(reg *opapi.Registry) {
	for _, h := range b.ops {
		if h.name == "" || h.kind == "" {
			continue // already reported by AddOperator
		}
		if !reg.Registered(h.kind) {
			b.errs = append(b.errs, fmt.Errorf("compiler: operator %q: unknown operator kind %q", h.name, h.kind))
			continue
		}
		model := reg.Model(h.kind)
		if model == nil {
			continue // registered without a descriptor: unvalidated
		}
		for _, err := range model.Validate(h.params, h.inputs, h.outputs) {
			b.errs = append(b.errs, fmt.Errorf("compiler: operator %q (kind %s): %w", h.name, h.kind, err))
		}
	}
}

// validateEndpoints checks every connection, export, and import against
// the declared port schema lists: port indexes must fall inside the
// endpoint's schema list and the two ends of a connection must carry
// identical schemas — instead of deferring the mismatch to a runtime
// wiring panic.
func (b *AppBuilder) validateEndpoints() {
	outPort := func(op string, port int) (*tuple.Schema, error) {
		h := b.byName[op]
		if h == nil {
			return nil, nil // unreported only for handles AddOperator rejected
		}
		if port < 0 || port >= len(h.outputs) {
			return nil, fmt.Errorf("%q declares %d output port(s), no port %d", op, len(h.outputs), port)
		}
		return h.outputs[port], nil
	}
	inPort := func(op string, port int) (*tuple.Schema, error) {
		h := b.byName[op]
		if h == nil {
			return nil, nil
		}
		if port < 0 || port >= len(h.inputs) {
			return nil, fmt.Errorf("%q declares %d input port(s), no port %d", op, len(h.inputs), port)
		}
		return h.inputs[port], nil
	}
	for _, c := range b.conns {
		from, errFrom := outPort(c.FromOp, c.FromPort)
		to, errTo := inPort(c.ToOp, c.ToPort)
		bad := false
		for _, err := range []error{errFrom, errTo} {
			if err != nil {
				b.errs = append(b.errs, fmt.Errorf("compiler: connect %s:%d -> %s:%d: %w", c.FromOp, c.FromPort, c.ToOp, c.ToPort, err))
				bad = true
			}
		}
		if bad || b.byName[c.FromOp] == nil || b.byName[c.ToOp] == nil {
			continue
		}
		if !from.Equal(to) {
			b.errs = append(b.errs, fmt.Errorf("compiler: connect %s:%d -> %s:%d: schema mismatch (%s vs %s)",
				c.FromOp, c.FromPort, c.ToOp, c.ToPort, from, to))
		}
	}
	for _, e := range b.exports {
		if _, err := outPort(e.Operator, e.Port); err != nil {
			b.errs = append(b.errs, fmt.Errorf("compiler: export from %s:%d: %w", e.Operator, e.Port, err))
		}
	}
	for _, im := range b.imports {
		if _, err := inPort(im.Operator, im.Port); err != nil {
			b.errs = append(b.errs, fmt.Errorf("compiler: import into %s:%d: %w", im.Operator, im.Port, err))
		}
	}
}

func schemaAttrs(s *tuple.Schema) []tuple.Attribute {
	if s == nil {
		return nil
	}
	attrs := make([]tuple.Attribute, s.NumAttrs())
	for i := range attrs {
		attrs[i] = s.Attr(i)
	}
	return attrs
}

func joinErrors(errs []error) error {
	msgs := make([]string, len(errs))
	for i, e := range errs {
		// Each accumulated error carries its own "compiler:" prefix;
		// keep just one on the joined message.
		msgs[i] = strings.TrimPrefix(e.Error(), "compiler: ")
	}
	return fmt.Errorf("compiler: %s", strings.Join(msgs, "; "))
}
