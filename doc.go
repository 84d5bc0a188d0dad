// Package streamorca is a from-scratch Go reproduction of "Building
// User-defined Runtime Adaptation Routines for Stream Processing
// Applications" (Jacques-Silva et al., VLDB 2012): a System S–style
// distributed stream processing platform plus the paper's contribution,
// the orchestrator (ORCA) — a first-class runtime component that lets
// developers write application-management policies (failure recovery,
// model recomputation, dynamic composition) separately from the data
// processing logic.
//
// Public API:
//
//   - package streams — build and run streaming applications
//   - package orca    — write runtime adaptation routines (ORCA logic)
//
// # Dataplane
//
// The tuple dataplane is columnar and unboxed: a schema compiles each
// attribute to a fixed slot in typed storage (int64s carry ints, float
// bits, bools, and unix-nano timestamps; strings ride in their own
// array), so no attribute value ever sits behind an interface. Operators
// resolve attribute names once at setup into compiled FieldRefs and read
// tuples with no per-tuple lookups; the name-based accessors remain as a
// compatibility layer. Cross-PE stream connections frame tuples in small
// batches through the binary codec; ARCHITECTURE.md ("Tuple and frame
// lifecycle", step 3) follows a tuple across a hop, and internal/tuple
// and internal/transport hold the layout and framing contracts.
//
// # Batch execution
//
// The tuple run is the only unit the dataplane moves. Every operator
// with inputs has one inbox, a bounded swap buffer its consume
// goroutine drains whole: an idle queue hands over one tuple at once, a
// busy one a run, with no timer in between (its capacity and the
// queueSize gauge count tuples). The loop cuts each drained run into
// chunks — consecutive tuples of one port, a transport frame's worth at
// most — and an operator opts into receiving a chunk as one call by
// implementing streams.BatchOperator: ProcessBatch(port, *tuple.Batch)
// alongside the mandatory per-tuple Process, against a single reused
// Batch view (zero allocations on the steady-state path). Punctuation
// splits chunks: marks are always delivered in position through
// ProcessMark, so window boundaries and final marks keep their ordering
// guarantees. For operators that do not implement the interface the
// chunk unrolls through Process one tuple at a time.
//
// The Batch is a borrowed view. It is valid only for the duration of
// the ProcessBatch call; an operator that retains tuples beyond the
// call must copy them (tuple.Clone), exactly the contract Process has
// always had — load-bearing now: a frame's tuples live in a leased block
// its carriers recycle once the chunk is done (ARCHITECTURE.md, "Tuple
// storage ownership"). Submissions are coalesced for the length of a chunk, for
// every operator: outputs buffer per port and flush as one queue entry
// into same-PE consumers and as one run into cross-PE links, so a fused
// chain never degrades to per-tuple handoff — which is what makes a
// fused hop cheaper than a cross-PE one. A source has no chunk: its
// Submit forwards at once, and one that holds several tuples hands them
// over as a run through the context's optional opapi.RunSubmitter
// (SubmitRun: every tuple checked as Submit checks it, one flush). The
// same swap-buffer hand-over — append under a mutex, take everything
// pending, wake on the empty→non-empty edge, no timer — carries runs
// through load.Injector in front of the source and through
// transport.Link.SendRun, the outlet a port's flush calls once with its
// whole buffer, behind it.
//
// The chunk is the unit of failure: if a call returns an error the chunk's
// buffered outputs are discarded rather than forwarded — restart-based
// recovery replays from upstream, and forwarding the partial effects would
// double-deliver them — the PE crashes, and the chunk and everything
// queued behind it is logged and counted on nTuplesDropped, as is every
// tuple offered to an operator that has finalised or a container that has
// died. The hot built-ins (Functor, Filter, Aggregate ingest, CountSink,
// LatencySink) implement the interface with tight column-slice loops; the
// orcalint batchspi analyzer guards the signature contracts (a mis-typed
// ProcessBatch would otherwise silently fall back to the per-tuple path).
//
// # Operator model
//
// Operator kinds register declarative descriptors (opapi.OpModel) —
// typed parameter specs with required/default/range/enum constraints,
// and port specs with arity and schema requirements — mirroring SPL's
// operator model (§2.1). The compiler validates every application
// against the registered descriptors at Build: unknown kinds,
// missing/mistyped/out-of-range parameters, port-arity violations, and
// connections between disagreeing schemas all accumulate into one
// operator-qualified error before SAM ever places a PE. Operators bind
// their configuration at Open through error-reporting accessors
// (Params.BindInt, BindEnum, Binder), so malformed values that slip
// past compile-time checks (e.g. substituted at submission time) fail
// loudly instead of silently falling back to defaults. `adltool
// catalog` dumps the full registered catalog.
//
// # Authoring adaptation routines
//
// ORCA logic is written as composable adaptation routines (package
// orca): a Routine pairs each event scope with its typed handler in one
// expression and declares everything in a Setup(*SetupContext) error —
// registration problems, rejected submissions, and duplicate scope keys
// propagate out of Service.Start instead of panicking inside a handler.
// Cross-cutting activation logic comes from reusable guard combinators
// rather than per-policy mutex-and-timestamp state: Threshold/AtLeast
// gate on an observed value, SuppressFor bounds re-trigger frequency on
// the service clock, Debounce demands a sustained condition, and
// OncePerEpoch collapses one incident's failure fan-out into a single
// actuation. A guard records state only when its inner handler fired
// (returned nil); ErrSkipped and errors leave it unarmed so the next
// delivery retries. The §5.1 policy is the canonical composition —
// ratio threshold around a suppression window:
//
//	func (p *policy) Setup(sc *orca.SetupContext) error {
//	    if _, err := sc.Actions().SubmitApplication(p.App, nil); err != nil {
//	        return err
//	    }
//	    handler := orca.Threshold(p.observeRatio, 1.0,
//	        orca.SuppressFor(10*time.Minute, p.recomputeModel))
//	    return sc.Subscribe(orca.OnOperatorMetric(p.scope(), handler))
//	}
//
// Independent routines compose into one service with orca.Compose (or
// by passing several to NewRoutineService); each keeps its own name for
// setup-error attribution. Routines that acquire resources release them
// through teardown hooks — implement the optional orca.Closer interface
// or register a function with SetupContext.OnStop — which Service.Stop
// runs in reverse setup order while the actuation surface is still
// live.
//
// # Checkpointing
//
// Operator state is checkpointable (internal/ckpt). An operator opts in
// by implementing streams.StatefulOperator — SaveState serialises its
// state through a StateEncoder, RestoreState reads the same values back
// in the same order — and a platform opts in by setting a
// CheckpointStore (in-memory or filesystem-backed) in InstanceOptions.
// Snapshots are per PE: a versioned, CRC-32C-guarded binary blob with
// one section per stateful operator, taken periodically on the platform
// clock (CheckpointInterval; 0 disables the timer) and on demand via
// the orchestrator actuation Service.CheckpointPE. SAM's RestartPE then
// restores every section into the fresh container before any tuple is
// delivered, so a restarted PE resumes with its aggregate windows and
// application counters instead of rebuilding them from live traffic.
//
// What a snapshot captures is exactly what operators write in
// SaveState — nothing else. Input-queue contents, in-flight tuples, and
// built-in metrics are lost on a crash (restart-based recovery keeps
// the paper's §5.2 tuple-loss semantics; only declared operator state
// survives). Capture is per-operator atomic — SaveState runs serialised
// with tuple processing for operators with inputs, and against the
// operator's own synchronisation for sources — but not consistent
// across operators or PEs. A corrupt, truncated, or version-skewed
// snapshot is detected (bad magic, CRC mismatch, version check),
// logged, and discarded: a bad snapshot never blocks a restart, it just
// makes the restart cold. Cancelling a job deletes its snapshots.
//
// # Checkpoint-aware failover
//
// Every PE publishes a snapshot-age gauge, lastCheckpointAgeMs
// (streams.MetricCheckpointAgeMs): milliseconds since its state was
// last anchored to a snapshot — a completed checkpoint, or a restore at
// start-up — and -1 before any anchor. Snapshots record their capture
// instant in the header (format v2; v1 snapshots still parse, with the
// instant unknown), so a restore anchors the gauge to when the state
// was actually captured, not to the restart — a replica restored from
// an hour-old snapshot honestly reports an hour of staleness. The gauge
// rides the ordinary HC→SRM→orchestrator metric path, so adaptation
// routines observe it with an OnPEMetric subscription like any other PE
// metric.
//
// The §5.2 failover policy (internal/policies.Failover, and the
// orcarun staleness-failover scenario) is built on this signal. The
// paper promoted the replica with the longest uptime as a proxy for the
// fullest sliding windows; with durable snapshots the better question
// is "how little state would this replica lose if it had to restart?",
// which is exactly the snapshot age. Promotion ranks backups by their
// worst observed PE snapshot age (no snapshot ranks last; uptime
// remains only as the tie-break, so a store-less platform degrades to
// the paper's behaviour), is deduplicated per failure epoch with
// OncePerEpoch, and checkpoints the demoted replica's surviving PEs
// before committing — the loser's recoverable state is never older than
// the incident (those CheckpointPE calls are journalled under the
// failure event's transaction id). A second guard composition keeps the
// signal fresh:
//
//	refresh := orca.Threshold(p.observeSnapshotAge, -1, // -1: any anchored age
//	    perPE(func() orca.Handler[orca.PEMetricContext] {
//	        return orca.Debounce(p.StalenessDebounce, p.overLimit, p.checkpointActive)
//	    }))
//	sc.Subscribe(orca.OnPEMetric(
//	    orca.NewPEMetricScope("snapshotAge").
//	        AddApplicationFilter(p.App).
//	        AddPEMetric(streams.MetricCheckpointAgeMs),
//	    refresh))
//
// observeSnapshotAge folds every observation into the policy's ranking
// table and reports the age when it concerns the active replica, so the
// Threshold passes every anchored active-replica observation (limit -1)
// down to a per-PE Debounce whose holds predicate checks the
// MaxSnapshotAge breach. Healthy observations reach the Debounce too
// and reset its streak; only StalenessDebounce consecutive breaching
// observations of the same PE fire the CheckpointPE actuation
// (journalled, like every actuation).
//
// # Chaos and fault injection
//
// The robustness claims are exercised, not asserted: internal/chaos is
// a deterministic fault-injection harness. Generate(seed, opts) builds
// a seeded Schedule of timestamped fault events — PE kills, host kills
// and revivals, checkpoint-store write failures, silently dropped
// saves (stale-checkpoint injection), torn writes, store latency, and
// metric-delivery delays — and a Runner drives any live platform
// instance through it. Host state is simulated during generation, so
// the same seed always produces the same schedule (compare
// Schedule.Fingerprint across runs) and the generator never kills the
// last live host: the retry budget, not resource exhaustion, is what
// the harness stresses.
//
// Store faults land through streams.NewFaultCheckpointStore, a
// transparent CheckpointStore decorator armed with one-shot fault
// budgets. Actuation resilience comes from streams.RetryPolicy
// (InstanceOptions.Retry): SAM's RestartPE and CheckpointPE retry
// transient failures with exponential backoff and seeded jitter,
// journalling every attempt (SAM.AttemptJournal), and a PE whose retry
// budget is exhausted is marked unplaceable and announced through a
// degradation PEFailure event (its Reason starts with
// sam.RestartAbandoned; handlers test PEFailureContext.Abandoned)
// instead of being retried forever — policies observe the degradation
// and decide (internal/policies.Restart, the one restart-on-failure
// routine every scenario and the Failover policy share, counts it and
// does not re-actuate); the zero-value policy keeps the old
// single-attempt determinism. The orcarun chaos scenario (the "chaos"
// entry of internal/exp.Scenarios) layers all of it over a live
// checkpointing pipeline, then sweeps: disarm the store, revive the
// cluster, restart what is down, and fail the run unless every PE
// comes back and output resumes; it prints its recovery-gap statistics.
//
// # Load generation and latency measurement
//
// internal/load is the heavy-traffic regression harness. Two driver
// models inject tuples into a running application through a
// "LoadSource" operator (fed via a named injector of the platform
// instance's object set, a bounded swap buffer that outlives the PE, so
// a chaos-killed source PE reattaches mid-run):
//
//   - Open loop (load.RunOpenLoop): a constant offered rate,
//     coordinated-omission-correct. Tuple i is stamped with its
//     *intended* send instant start + i/rate before the (possibly
//     blocking) push, so a stalled pipeline inflates the recorded tail
//     even though fewer tuples were delivered during the stall. This
//     is the driver the loadtest gate uses.
//   - Closed loop (load.RunClosedLoop): N concurrent users with think
//     time, stamped at the actual send. Offered rate is bounded by
//     users/think and throttles under back-pressure — the classic
//     model the open-loop driver exists to correct for.
//
// Keys come from workload.KeyGen, a Zipf sampler (any exponent s >= 0,
// seeded, CDF-inverted) whose rank-0-hottest keys make hot partitions
// emerge naturally under hash routing. A "LatencySink" operator reads
// the injection timestamp attribute and records source-to-sink latency
// into a load.Meter: a mergeable log-bucketed histogram (2^5 linear
// sub-buckets per octave, <= ~3.1% relative quantile error,
// allocation-free four-atomic-op Record) plus windowed throughput
// bins. Per-PE ingest/egress tuples-per-second gauges
// (streams.MetricIngestRate / MetricEgressRate) are derived from
// counter deltas at each metric snapshot — the signal both the load
// scenarios and the elastic fission routine read.
//
// The orcarun loadtest scenario (internal/exp.Scenarios) drives a
// checkpointing three-host pipeline — LoadSource -> hash-split over
// three Functor workers -> merge -> LatencySink, with an Aggregate
// branch holding checkpointable window state — and prints
// p50/p99/p999/max latency plus sustained and per-window throughput.
// The chaos-load scenario layers the chaos schedule over the same
// workload, so recovery gaps show up as measured p999 and
// min-window-throughput dips; for a fixed seed the schedule
// fingerprint, offered count, and hot-key share are identical across
// runs. Scenarios print what they measure and assert on it; the
// system's performance numbers come from one place, go run ./bench
// (BENCHMARK.json declares its workloads and metrics).
//
// # Parallel regions and elastic fission
//
// Parallel regions are the platform's adaptation showcase: the worked
// example of the paper's thesis that runtime adaptation is orchestrator
// logic, not dataplane machinery. An operator with a declared partition
// key (OpModel.PartitionKey names the parameter holding the key
// attribute — Aggregate's groupBy, KeyedWorker's keyAttr) can be
// declared data-parallel in the builder with .Parallel(width). The
// compiler expands the declaration into a key-partitioned region: an
// auto-inserted hash split (FNV-1a over the key attribute, the same
// hash opapi.PartitionOf exposes), width replicated instances of the
// operator each isolated in its own PE, and a merge fanning back into
// one stream. Neighbours connect to the split and merge, so the
// region's width is invisible to the rest of the graph.
//
// Width is a runtime property. SAM's ResizeRegion actuation recompiles
// the job's ADL to the new width, quiesces the region, migrates the
// replicas' per-key state through the checkpoint store — old snapshots
// are folded together (MergeState) and re-cut along the new
// partitioning (SplitState), so every group window lands on exactly the
// replica the resized hash split will route its key to — and restarts
// the region, rewiring every stream link that touched it. Migration is
// best-effort in the platform's usual "a bad snapshot never blocks a
// restart" spirit: any failure degrades to a region-wide cold start,
// losing window state but never wedging the region.
//
// The decision to scale lives where the paper says it should: in an
// adaptation routine (internal/policies.Fission), built from the same
// subscription-and-guard vocabulary as every other routine. It watches
// the region's offered load — the split PE's ingestRatePerSec gauge,
// width-independent by construction — plus egress rates and operator
// queue depths, and composes a Threshold (anchor the ingress
// observation, fold the load picture), a Debounce (demand sustained
// overload, not a one-pull spike), and a SuppressFor cooldown (let the
// last resize warm up) around the ResizeRegion actuation, growing the
// region one replica at a time up to a cap. The orcarun fission
// scenario runs the whole loop live — probes the region's capacity at
// width 1 and max width, then offers a Zipf-skewed load above the
// width-1 ceiling and lets the routine, not the driver, widen the
// region — and prints both capacities, the actuation log, and the
// delivered latency.
//
// # Static analysis and lint contracts
//
// The platform's layering leans on contracts the compiler cannot see:
// an OpModel declares parameters that Open binds by string key, metric
// scopes and guards select metrics by name, checkpoint SPI methods are
// discovered by interface assertion, and actuations report failures
// through errors the retry machinery consumes. Each of those drifts
// silently — a misspelled Bind key takes its default forever, a
// misspelled metric name matches nothing, a SaveState without
// RestoreState checkpoints state that is never restored, a discarded
// actuation error hides a failed restart. internal/lint encodes these
// invariants as orcalint analyzers (paramdrift, metrickey, batchspi,
// statespi, actuationcheck), built on the standard library's go/types
// against
// build-cache export data so the module keeps its zero-dependency
// property. cmd/orcalint runs the suite over any package pattern and
// fails on the first finding; -list prints the analyzer catalog. CI
// runs it over the whole tree. A finding that is genuinely intended —
// a best-effort rollback, a deliberately external restore path — is
// suppressed in the source with
//
//	//orcalint:ignore <analyzer>[,<analyzer>] <reason>
//
// at the end of the offending line (or alone on the line above), and
// the reason is mandatory: an undocumented exemption is itself a
// diagnostic. The analyzers' own fixtures live under
// internal/lint/testdata and pin both the positive findings and the
// exemption forms.
//
// See ARCHITECTURE.md for the component map, the tuple/frame and
// checkpoint/restore lifecycles, the analyzer catalog, and the catalog
// of every orcarun scenario with what it proves; ROADMAP.md for the
// open directions. go run ./bench is the benchmark; the root-level
// bench_test.go keeps the paper-§6 micro-costs it does not cover.
package streamorca
