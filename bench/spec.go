package main

// metricSpec declares one reported metric. BENCHMARK.json at the root
// of the repository carries the same declarations; a test keeps the two
// in step.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
}

// runSeconds is how long one run measures by default, and what
// BENCHMARK.json tells the driver to pass as --seconds.
const runSeconds = 25

// endToEnd are the metrics a user of the system would see. Every
// workload reports every one of them, from the untraced run.
var endToEnd = []metricSpec{
	{"throughput_tps", "1/s", "higher", 0.25},
	{"cpu_ns_per_tuple", "ns", "lower", 0.25},
	{"alloc_bytes_per_tuple", "B", "lower", 0.05},
	{"lat_p99_ms", "ms", "lower", 0.25},
	{"recover_ms", "ms", "lower", 0.25},
	{"event_tps", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// queueOps are the operators with an input queue, over all workloads,
// by the label their per-operator metrics carry.
var queueOps = []string{"f1", "f2", "split", "work0", "work1", "merge", "sink"}

// perLayer are the metrics of single layers, from the traced run. A
// metric whose layer a workload does not use reads 0 there.
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{name: "tuple.new_ns", unit: "ns", better: "lower"},
		{name: "tuple.encode_ns", unit: "ns", better: "lower"},
		{name: "tuple.decode_ns", unit: "ns", better: "lower"},
		{name: "tuple.bytes_per_tuple", unit: "B", better: "lower"},

		{name: "transport.hop_ns", unit: "ns", better: "lower"},
		{name: "transport.tuples_per_frame", unit: "count", better: "higher"},
		{name: "transport.bytes_per_tuple", unit: "B", better: "lower"},

		{name: "pe.inlet_ns", unit: "ns", better: "lower"},
		{name: "pe.batch_inlet_ns", unit: "ns", better: "lower"},
		{name: "pe.fused_hop_ns", unit: "ns", better: "lower"},
		{name: "pe.dropped", unit: "count", better: "lower"},

		{name: "ops.functor_ns", unit: "ns", better: "lower"},
		{name: "ops.functor_batch_ns", unit: "ns", better: "lower"},
		{name: "ops.split_ns", unit: "ns", better: "lower"},
		{name: "ops.keyedworker_ns", unit: "ns", better: "lower"},
		{name: "ops.merge_ns", unit: "ns", better: "lower"},
		{name: "ops.split_skew", unit: "ratio", better: "lower"},

		{name: "load.gen_lag_p50_us", unit: "us", better: "lower"},
		{name: "load.gen_lag_p99_us", unit: "us", better: "lower"},
		{name: "load.lat_mean_us", unit: "us", better: "lower"},
		{name: "load.transit_p50_us", unit: "us", better: "lower"},
		{name: "load.transit_p99_us", unit: "us", better: "lower"},
		{name: "load.ingest_ceiling_tps", unit: "1/s", better: "higher"},

		{name: "ckpt.encode_us", unit: "us", better: "lower"},
		{name: "ckpt.parse_us", unit: "us", better: "lower"},
		{name: "ckpt.save_us", unit: "us", better: "lower"},
		{name: "ckpt.load_us", unit: "us", better: "lower"},
		{name: "ckpt.snapshot_bytes", unit: "B", better: "lower"},
		{name: "ckpt.count", unit: "count", better: "higher"},
		{name: "ckpt.bytes_per_s", unit: "B/s", better: "lower"},

		{name: "compiler.build_ms", unit: "ms", better: "lower"},
		{name: "sam.submit_ms", unit: "ms", better: "lower"},
		{name: "sam.cancel_ms", unit: "ms", better: "lower"},
		{name: "sam.checkpoint_pe_us", unit: "us", better: "lower"},
		{name: "sam.restart_us", unit: "us", better: "lower"},
		{name: "sam.resize_ms", unit: "ms", better: "lower"},
		{name: "sam.lost_per_kill", unit: "count", better: "lower"},
		{name: "sam.lost_per_resize", unit: "count", better: "lower"},
		{name: "srm.flush_us", unit: "us", better: "lower"},
		{name: "srm.query_us", unit: "us", better: "lower"},
		{name: "core.detect_us", unit: "us", better: "lower"},
		{name: "core.pull_us", unit: "us", better: "lower"},
		{name: "core.event_p50_us", unit: "us", better: "lower"},

		{name: "bench.resume_us", unit: "us", better: "lower"},
		{name: "bench.attrib_sum_ns", unit: "ns", better: "lower"},
		{name: "bench.attrib_residual_frac", unit: "ratio", better: "lower"},
		{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
	}
	for _, op := range queueOps {
		ms = append(ms,
			metricSpec{name: "pe.queue_mean." + op, unit: "count", better: "lower"},
			metricSpec{name: "pe.queue_max." + op, unit: "count", better: "lower"})
	}
	return ms
}()
