// Package ops provides the built-in operator library (the equivalent of
// the SPL standard toolkit): sources, relational operators, windowed
// aggregation and sinks. Every kind registers into opapi.Default at init
// together with its operator model, so the compiler validates
// applications against the library's parameter and port declarations at
// Build time and the runtime resolves kinds by name.
package ops

import "streamorca/internal/opapi"

// Registered operator kind names.
const (
	KindBeacon        = "Beacon"
	KindFilter        = "Filter"
	KindDynamicFilter = "DynamicFilter"
	KindFunctor       = "Functor"
	KindSplit         = "Split"
	KindMerge         = "Merge"
	KindAggregate     = "Aggregate"
	KindCollectSink   = "CollectSink"
	KindCountSink     = "CountSink"
)

// Custom metric names published by the library's operators, exported so
// routines and benchmarks subscribe by constant rather than re-spelling
// the string.
const (
	// MetricTuplesDropped counts tuples Filter/DynamicFilter discarded.
	MetricTuplesDropped = "nTuplesDropped"
	// MetricTuplesSeen counts tuples CountSink swallowed.
	MetricTuplesSeen = "nTuplesSeen"
)

// comparisonOps are the predicate operators Filter and DynamicFilter
// accept for their "op" parameter.
var comparisonOps = []string{"eq", "ne", "lt", "le", "gt", "ge", "contains"}

// splitModes are Split's routing disciplines; shared between the
// operator model and Open's BindEnum so the two can never diverge.
var splitModes = []string{"roundrobin", "duplicate", "hash"}

// filterParams is the shared parameter block of Filter and DynamicFilter.
func filterParams() []opapi.ParamSpec {
	return []opapi.ParamSpec{
		{Name: "attr", Type: opapi.ParamString, Doc: "attribute to test; empty passes everything"},
		{Name: "op", Type: opapi.ParamEnum, Enum: comparisonOps, Default: "eq", Doc: "comparison operator"},
		{Name: "value", Type: opapi.ParamString, Doc: "comparison value, parsed per attribute type"},
	}
}

func init() {
	opapi.Default.RegisterOp(KindBeacon, func() opapi.Operator { return &beacon{} }, &opapi.OpModel{
		Doc:     "emits sequentially numbered tuples",
		Outputs: opapi.ExactlyPorts(1),
		Params: []opapi.ParamSpec{
			{Name: "count", Type: opapi.ParamInt, Default: "0", Min: opapi.Bound(0), Doc: "tuples to emit; 0 = unbounded"},
			{Name: "period", Type: opapi.ParamDuration, Default: "0", Min: opapi.Bound(0), Doc: "inter-tuple delay"},
			{Name: "seqAttr", Type: opapi.ParamString, Default: "seq", Doc: "int64 attribute receiving the sequence number"},
		},
	})
	opapi.Default.RegisterOp(KindFilter, func() opapi.Operator { return &filter{} }, &opapi.OpModel{
		Doc:     "passes tuples matching a single-attribute predicate",
		Inputs:  opapi.ExactlyPorts(1),
		Outputs: opapi.ExactlyPorts(1),
		Params:  filterParams(),
	})
	opapi.Default.RegisterOp(KindDynamicFilter, func() opapi.Operator { return &dynamicFilter{} }, &opapi.OpModel{
		Doc:     "filter whose predicate orchestrator control commands replace at runtime",
		Inputs:  opapi.ExactlyPorts(1),
		Outputs: opapi.ExactlyPorts(1),
		Params:  filterParams(),
	})
	opapi.Default.RegisterOp(KindFunctor, func() opapi.Operator { return &functor{} }, &opapi.OpModel{
		Doc:     "projects tuples onto the output schema with optional arithmetic",
		Inputs:  opapi.ExactlyPorts(1),
		Outputs: opapi.ExactlyPorts(1),
		Params: []opapi.ParamSpec{
			{Name: "addInt", Type: opapi.ParamString, Doc: `"attr:delta" adds delta to an int64 attribute`},
			{Name: "scale", Type: opapi.ParamString, Doc: `"attr:factor" multiplies a float64 attribute`},
			{Name: "setStr", Type: opapi.ParamString, Doc: `"attr:value" overwrites a string attribute`},
		},
	})
	opapi.Default.RegisterOp(KindSplit, func() opapi.Operator { return &split{} }, &opapi.OpModel{
		Doc:     "routes each tuple to one (or all) of its output ports",
		Inputs:  opapi.ExactlyPorts(1),
		Outputs: opapi.AtLeastPorts(1),
		Params: []opapi.ParamSpec{
			{Name: "mode", Type: opapi.ParamEnum, Enum: splitModes, Default: "roundrobin", Doc: "routing discipline"},
			{Name: "attr", Type: opapi.ParamString, Doc: "hashing attribute for mode=hash"},
		},
	})
	opapi.Default.RegisterOp(KindMerge, func() opapi.Operator { return &merge{} }, &opapi.OpModel{
		Doc:     "forwards tuples from all input ports to output port 0",
		Inputs:  opapi.AtLeastPorts(1),
		Outputs: opapi.ExactlyPorts(1),
	})
	opapi.Default.RegisterOp(KindAggregate, func() opapi.Operator { return &aggregate{} }, &opapi.OpModel{
		Doc:          "per-group sliding-window summary statistics over one numeric attribute",
		Inputs:       opapi.ExactlyPorts(1),
		Outputs:      opapi.ExactlyPorts(1),
		PartitionKey: "groupBy",
		Params: []opapi.ParamSpec{
			{Name: "window", Type: opapi.ParamDuration, Required: true, Min: opapi.Bound(1e-9), Doc: "sliding window length"},
			{Name: "groupBy", Type: opapi.ParamString, Doc: "grouping attribute; empty = one global group"},
			{Name: "valueAttr", Type: opapi.ParamString, Required: true, Doc: "float64 attribute to aggregate"},
		},
	})
	opapi.Default.RegisterOp(KindCollectSink, func() opapi.Operator { return &collectSink{} }, &opapi.OpModel{
		Doc:    "stores received tuples into an observable collection",
		Inputs: opapi.ExactlyPorts(1),
		Params: []opapi.ParamSpec{
			{Name: "collectorId", Type: opapi.ParamString, Doc: "collection to append to (default: instance name)"},
			{Name: "limit", Type: opapi.ParamInt, Default: "0", Min: opapi.Bound(0), Doc: "keep only the most recent N tuples; 0 = all"},
		},
	})
	opapi.Default.RegisterOp(KindCountSink, func() opapi.Operator { return &countSink{} }, &opapi.OpModel{
		Doc:    "discards tuples, tracking only the nTuplesSeen metric",
		Inputs: opapi.ExactlyPorts(1),
	})
}
