// Package streams is the public API for building and running streaming
// applications on the platform: the application builder (the SPL
// analogue), the operator SPI for custom operators, the built-in operator
// library, and the platform instance (SAM + SRM + simulated cluster).
//
// A minimal program:
//
//	inst, _ := streams.NewInstance(streams.InstanceOptions{
//	    Hosts: []streams.HostSpec{{Name: "h1"}},
//	})
//	defer inst.Close()
//	b := streams.NewApp("hello")
//	src := b.AddOperator("src", "Beacon").Out(schema).Param("count", "10")
//	sink := b.AddOperator("sink", "CollectSink").In(schema).Param("collectorId", "out")
//	b.Connect(src, 0, sink, 0)
//	app, _ := b.Build(streams.BuildOptions{})
//	inst.SAM.SubmitJob(app, streams.SubmitOptions{})
//
// # Operator model
//
// Every built-in operator kind registers a declarative descriptor (an
// OpModel) describing its parameters — name, type, required/default,
// range or enum — and its port arities and schema constraints. Build
// validates the whole application against these descriptors and
// accumulates every violation into one error, so an unknown kind, a
// mistyped parameter value, a port-arity violation, or a connection
// between disagreeing schemas fails at compile time with an
// operator-qualified message instead of misbehaving at runtime:
//
//	b.AddOperator("src", "Beacon").Out(schema).Param("count", "ten")
//	_, err := b.Build(streams.BuildOptions{})
//	// compiler: operator "src" (kind Beacon): param "count": invalid int64 value "ten"
//
// Custom operators get the same protection by registering a descriptor
// with RegisterOperatorModel; see the quickstart example. Inside an
// operator, bind configuration at Open with a Binder (Params.Bind),
// which reports every malformed value through its Err.
//
// See package orca for writing runtime adaptation routines against
// running applications.
package streams

import (
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/ids"
	"streamorca/internal/load"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
	"streamorca/internal/workload"
)

// Application model.
type (
	// Application is a compiled ADL artifact ready for submission.
	Application = adl.Application
	// HostPool names a set of candidate hosts for placement.
	HostPool = adl.HostPool
	// AppBuilder assembles an application's logical graph.
	AppBuilder = compiler.AppBuilder
	// OpHandle is a fluent reference to an operator under construction.
	OpHandle = compiler.OpHandle
	// BuildOptions selects the fusion strategy.
	BuildOptions = compiler.Options
	// FusionMode enumerates partitioning strategies.
	FusionMode = compiler.FusionMode
)

// Fusion strategies for BuildOptions.
const (
	FuseByTag = compiler.FuseByTag
	FuseNone  = compiler.FuseNone
	FuseAll   = compiler.FuseAll
)

// NewApp starts building an application.
func NewApp(name string) *AppBuilder { return compiler.NewApp(name) }

// Data model.
type (
	// Schema is an ordered set of typed attributes, compiled at
	// construction to a columnar slot layout.
	Schema = tuple.Schema
	// Attribute is one named, typed slot.
	Attribute = tuple.Attribute
	// Tuple is one data item, stored unboxed in typed arrays.
	Tuple = tuple.Tuple
	// TupleBatch is a schema-homogeneous run of tuples handed to
	// BatchOperator implementers as one call; see the tuple.Batch docs
	// for the ownership contract.
	TupleBatch = tuple.Batch
	// Type enumerates attribute types.
	Type = tuple.Type
	// FieldRef is a compiled attribute reference: resolve once at operator
	// setup (Schema.Ref / Schema.TypedRef / Schema.MustRef), then access
	// tuples with no per-tuple name lookup. See the tuple package comment
	// for the resolution contract.
	FieldRef = tuple.FieldRef
)

// Attribute types.
const (
	Int       = tuple.Int
	Float     = tuple.Float
	String    = tuple.String
	Bool      = tuple.Bool
	Timestamp = tuple.Timestamp
)

// NewSchema builds a schema, validating attribute names and types.
func NewSchema(attrs ...Attribute) (*Schema, error) { return tuple.NewSchema(attrs...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...Attribute) *Schema { return tuple.MustSchema(attrs...) }

// NewTuple returns a zero-valued tuple of the schema.
func NewTuple(s *Schema) Tuple { return tuple.New(s) }

// Operator SPI for custom operators.
type (
	// Operator is the stream-operator interface. The retain rule: a
	// tuple handed to Process or ProcessBatch is valid for the call, its
	// storage recycled afterwards: submit it, read it, or Clone to keep.
	Operator = opapi.Operator
	// BatchOperator is the opt-in batch execution SPI: an Operator that
	// also accepts each chunk of its input queue (up to a transport
	// frame's worth of tuples) through one ProcessBatch call. The
	// per-tuple Process remains mandatory — it defines what the batch
	// call must be equivalent to.
	BatchOperator = opapi.BatchOperator
	// Source is an operator with no inputs, driven by Run.
	Source = opapi.Source
	// Controllable receives orchestrator control commands.
	Controllable = opapi.Controllable
	// StatefulOperator declares checkpointable state: SaveState writes
	// it through a StateEncoder, RestoreState reads it back after a PE
	// restart. See the interface docs for the capture contract.
	StatefulOperator = opapi.StatefulOperator
	// PartitionedStateOperator extends StatefulOperator with the
	// fold/re-cut hooks (MergeState, SplitState) a runtime width change
	// of a parallel region uses to migrate per-key state between
	// partitionings. Operators declared data-parallel with
	// OpHandle.Parallel should implement it; a stateful kind without it
	// cold-starts its region on every resize.
	PartitionedStateOperator = opapi.PartitionedStateOperator
	// OpContext is the runtime environment handed to an operator.
	OpContext = opapi.Context
	// OperatorBase provides no-op defaults to embed.
	OperatorBase = opapi.Base
	// Params are operator configuration values. Bind parameters at Open
	// with a Binder (Params.Bind) so malformed values fail loudly
	// instead of silently falling back to defaults.
	Params = opapi.Params
)

// Declarative operator model: a descriptor registered alongside an
// operator kind that Build validates applications against, so
// misconfiguration fails at compile time rather than at runtime.
type (
	// OpModel describes one operator kind's parameters and ports.
	OpModel = opapi.OpModel
	// ParamSpec declares one configuration parameter.
	ParamSpec = opapi.ParamSpec
	// PortSpec declares the arity and schema constraints of one side's
	// ports.
	PortSpec = opapi.PortSpec
	// ParamType enumerates declared parameter value types.
	ParamType = opapi.ParamType
)

// Declared parameter types for ParamSpec.Type.
const (
	ParamString   = opapi.ParamString
	ParamInt      = opapi.ParamInt
	ParamFloat    = opapi.ParamFloat
	ParamBool     = opapi.ParamBool
	ParamDuration = opapi.ParamDuration
	ParamEnum     = opapi.ParamEnum
)

// ExactlyPorts declares a fixed port arity for an OpModel side.
func ExactlyPorts(n int) PortSpec { return opapi.ExactlyPorts(n) }

// AtLeastPorts declares a variadic port arity of n or more.
func AtLeastPorts(n int) PortSpec { return opapi.AtLeastPorts(n) }

// Bound wraps a ParamSpec range endpoint.
func Bound(v float64) *float64 { return opapi.Bound(v) }

// RegisterOperator adds a custom operator kind to the default registry
// without a descriptor; applications using the kind build, but their
// configuration is not validated. Prefer RegisterOperatorModel. Both
// call factory once and panic on a nil operator, or on one with a
// ProcessBatch, SaveState/RestoreState or MergeState/SplitState method
// that does not satisfy BatchOperator, StatefulOperator or
// PartitionedStateOperator.
func RegisterOperator(kind string, factory func() Operator) {
	opapi.Default.Register(kind, func() opapi.Operator { return factory() })
}

// RegisterOperatorModel adds a custom operator kind together with its
// declarative descriptor, giving the kind the same Build-time parameter
// and port validation as the built-in library.
func RegisterOperatorModel(kind string, factory func() Operator, model *OpModel) {
	opapi.Default.RegisterOp(kind, func() opapi.Operator { return factory() }, model)
}

// OperatorKinds lists every registered operator kind.
func OperatorKinds() []string { return opapi.Default.Kinds() }

// OperatorModel returns the descriptor registered for kind, or nil when
// the kind is unknown or was registered without one. The returned model
// is shared; callers must not mutate it.
func OperatorModel(kind string) *OpModel { return opapi.Default.Model(kind) }

// Operator-state checkpointing: with a CheckpointStore in
// InstanceOptions, PE restarts restore every StatefulOperator from the
// PE's latest snapshot (periodic via CheckpointInterval, on-demand via
// orca's Service.CheckpointPE) instead of coming back empty.
type (
	// CheckpointStore persists PE state snapshots.
	CheckpointStore = ckpt.Store
	// StateEncoder writes operator state into a snapshot section.
	StateEncoder = ckpt.Encoder
	// StateDecoder reads operator state back out of a snapshot section.
	StateDecoder = ckpt.Decoder
)

// PartitionOf is the hash a parallel region's split applies to route a
// key to one of width partitions — FNV-1a over the key, stable across
// resizes. SplitState implementations use the same function so migrated
// state lands exactly where the resized split will route the key's
// tuples. sv and iv are the key's string and integer components; pass
// the zero value for the one the key does not use.
func PartitionOf(sv string, iv int64, width int) int { return opapi.PartitionOf(sv, iv, width) }

// NewMemCheckpointStore returns an in-process snapshot store — state
// survives PE restarts within one platform instance.
func NewMemCheckpointStore() CheckpointStore { return ckpt.NewMemStore() }

// NewFSCheckpointStore returns a snapshot store persisting under dir,
// surviving the process; back dir with shared storage for cross-host
// restore.
func NewFSCheckpointStore(dir string) (CheckpointStore, error) {
	fs, err := ckpt.NewFSStore(dir)
	if err != nil {
		// Return a bare nil interface, not a typed-nil *FSStore: callers
		// that mishandle err must still fail the platform's store
		// presence check instead of panicking on first use.
		return nil, err
	}
	return fs, nil
}

// FaultCheckpointStore decorates any CheckpointStore with deterministic
// fault injection — failed, dropped, and torn saves plus per-operation
// latency — for chaos testing against hostile storage.
type FaultCheckpointStore = ckpt.FaultStore

// NewFaultCheckpointStore wraps inner with fault injection. The clock
// paces injected latency; nil means the wall clock. With no faults
// armed the wrapper is fully transparent, so it can stay in place for
// production-shaped runs.
func NewFaultCheckpointStore(inner CheckpointStore, clock Clock) *FaultCheckpointStore {
	return ckpt.NewFaultStore(inner, clock)
}

// RetryPolicy bounds and paces the platform's restart and checkpoint
// actuations (InstanceOptions.Retry): bounded attempts with seeded
// exponential-backoff jitter. The zero value keeps the single-attempt
// behaviour deterministic virtual-clock tests rely on.
type RetryPolicy = sam.RetryPolicy

// DefaultRetryPolicy is the production-shaped retry policy: three
// attempts with 5ms-based exponential backoff capped at 250ms.
func DefaultRetryPolicy() RetryPolicy { return sam.DefaultRetryPolicy() }

// Platform runtime.
type (
	// Instance is a running platform (SAM, SRM, simulated cluster).
	Instance = platform.Instance
	// InstanceOptions configures NewInstance.
	InstanceOptions = platform.Options
	// HostSpec declares one simulated host.
	HostSpec = platform.HostSpec
	// SubmitOptions parameterises a job submission.
	SubmitOptions = sam.SubmitOptions
	// JobInfo describes a running job.
	JobInfo = sam.JobInfo
	// JobID identifies a job.
	JobID = ids.JobID
	// PEID identifies a processing element.
	PEID = ids.PEID
	// Clock abstracts time for tests and experiments.
	Clock = vclock.Clock
)

// NewInstance boots a platform.
func NewInstance(opts InstanceOptions) (*Instance, error) { return platform.NewInstance(opts) }

// ManualClock is a deterministic clock advanced explicitly by the
// caller; pass it as InstanceOptions.Clock for fully controlled runs.
type ManualClock = vclock.Manual

// NewManualClock returns a deterministic clock positioned at start.
func NewManualClock(start time.Time) *ManualClock { return vclock.NewManual(start) }

// Collector returns the named output collection that CollectSink
// operators of the instance write. Collections, injectors and meters
// belong to the instance they are reached through: two instances in one
// process never share one.
func Collector(inst *Instance, id string) *ops.Collection {
	return ops.Collector(inst.SAM.Objects(), id)
}

// Load generation and latency measurement: external drivers push tuples
// into a running application through a "LoadSource" operator (resolved
// from the instance's injectors by its injectorId parameter) and a
// "LatencySink" operator records source-to-sink latency from a
// Timestamp attribute stamped at injection. See the root package doc's
// "Load generation and latency measurement" section.
type (
	// LatencyHistogram is the mergeable log-bucketed latency histogram
	// (~3% relative quantile error, allocation-free Record).
	LatencyHistogram = load.Histogram
	// LoadInjector hands driver tuples to a LoadSource operator.
	LoadInjector = load.Injector
	// LoadMeter accumulates a LatencySink's observations: histogram,
	// delivered count, and windowed throughput.
	LoadMeter = load.Meter
	// OpenLoopConfig parameterises the constant-rate, coordinated-
	// omission-correct driver (latency charged against intended send
	// instants).
	OpenLoopConfig = load.OpenLoopConfig
	// ClosedLoopConfig parameterises the N-users-with-think-time driver.
	ClosedLoopConfig = load.ClosedLoopConfig
	// LoadStats summarises a driver run.
	LoadStats = load.Stats
	// KeyConfig and KeyGen draw Zipf-skewed keys for load generation.
	KeyConfig = workload.KeyConfig
	KeyGen    = workload.KeyGen
)

// NewLatencyHistogram returns an empty latency histogram.
func NewLatencyHistogram() *LatencyHistogram { return load.NewHistogram() }

// LoadInjectorFor returns the instance's injector with the given id,
// shared with the LoadSource operator configured with the same
// injectorId.
func LoadInjectorFor(inst *Instance, id string) *LoadInjector {
	return load.InjectorIn(inst.SAM.Objects(), id)
}

// LoadMeterFor returns the instance's meter with the given id, shared
// with the LatencySink operator configured with the same meterId.
func LoadMeterFor(inst *Instance, id string) *LoadMeter { return load.MeterIn(inst.SAM.Objects(), id) }

// RunOpenLoop drives an injector at a constant offered rate,
// coordinated-omission-correctly.
func RunOpenLoop(cfg OpenLoopConfig) (LoadStats, error) { return load.RunOpenLoop(cfg) }

// RunClosedLoop simulates N concurrent users with think time.
func RunClosedLoop(cfg ClosedLoopConfig) (LoadStats, error) { return load.RunClosedLoop(cfg) }

// NewKeyGen builds a Zipf-skewed key generator.
func NewKeyGen(cfg KeyConfig) *KeyGen { return workload.NewKeyGen(cfg) }

// Built-in metric names, re-exported for scope construction and metric
// inspection.
const (
	MetricTuplesProcessed   = metrics.OpTuplesProcessed
	MetricTuplesSubmitted   = metrics.OpTuplesSubmitted
	MetricQueueSize         = metrics.OpQueueSize
	MetricFinalPunctsQueued = metrics.PortFinalPunctsQueued
	MetricTupleBytesIn      = metrics.PETupleBytesProcessed
	MetricTupleBytesOut     = metrics.PETupleBytesSubmitted
	// Checkpointing health metrics (PE scope): snapshot count, restored
	// operator count, and the snapshot-age gauge checkpoint-aware
	// failover routines rank replicas by (-1 until a PE first anchors
	// its state to a snapshot).
	MetricCheckpoints     = metrics.PECheckpoints
	MetricStateRestores   = metrics.PEStateRestores
	MetricCheckpointAgeMs = metrics.PECheckpointAgeMs
	MetricCheckpointBytes = metrics.PECheckpointBytes
	// Tuple-rate gauges (PE scope): ingest/egress tuples per second,
	// derived from counter deltas between metric snapshots. Load
	// drivers and elasticity routines rank PEs by these.
	MetricIngestRate = metrics.PEIngestRate
	MetricEgressRate = metrics.PEEgressRate
)
