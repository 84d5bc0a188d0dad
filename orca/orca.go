// Package orca is the public API of the orchestrator — the paper's
// contribution. Write ORCA logic as an adaptation Routine: pair each
// event scope with its typed handler in one expression, declare
// everything in a Setup that returns errors, and actuate through the
// Actions surface the handlers receive:
//
//	type myPolicy struct{}
//
//	func (p *myPolicy) Name() string { return "restart" }
//
//	func (p *myPolicy) Setup(sc *orca.SetupContext) error {
//	    if _, err := sc.Actions().SubmitApplication("MyApp", nil); err != nil {
//	        return err
//	    }
//	    return sc.Subscribe(orca.OnPEFailure(
//	        orca.NewPEFailureScope("failures").AddApplicationFilter("MyApp"),
//	        func(ctx *orca.PEFailureContext, act *orca.Actions) error {
//	            return act.RestartPE(ctx.PE)
//	        }))
//	}
//
//	svc, _ := orca.NewRoutineService(orca.Config{Name: "my", SAM: inst.SAM, SRM: inst.SRM}, &myPolicy{})
//	svc.RegisterApplication(app)
//	if err := svc.Start(); err != nil { ... } // setup errors surface here
//
// Cross-cutting activation logic composes from the guard combinators
// instead of bespoke mutex-and-timestamp code: Threshold/AtLeast gate a
// handler on an observed value, SuppressFor bounds re-trigger frequency,
// Debounce demands a sustained condition, and OncePerEpoch collapses one
// incident's event fan-out into a single actuation. Several independent
// routines run on one service via Compose (or by passing them all to
// NewRoutineService).
//
// When the platform instance carries a checkpoint store
// (streams.InstanceOptions.Checkpoint), RestartPE is stateful: the
// restarted PE restores every checkpointed operator (aggregate
// windows, application counters) from its latest snapshot, and
// act.CheckpointPE(pe) captures one on demand. Every PE also publishes
// a snapshot-age gauge (streams.MetricCheckpointAgeMs, -1 until its
// state is first anchored) through the ordinary PE-metric event path,
// so checkpoint-aware policies subscribe to it with OnPEMetric and
// compose the guards over it — e.g. Threshold over the observed age,
// debounced, re-checkpointing a replica whose snapshot went stale, and
// a failover that promotes the backup with the freshest snapshot
// instead of the paper's longest-uptime proxy.
//
// The service delivers events one at a time, in arrival order, each to
// the typed handler whose subscription matched, with a context rich
// enough to disambiguate the application's logical and physical views
// (query further with act.Graph, act.OperatorsInPE, act.PEOfOperator...).
//
// Routines that acquire resources release them through teardown hooks:
// implement the optional Closer interface or register a function with
// SetupContext.OnStop, and Service.Stop runs the hooks — actuation
// surface still live — before event delivery shuts down.
package orca

import (
	"time"

	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/graph"
	"streamorca/internal/journal"
)

// Routine surface — the composable adaptation-routine API.
type (
	// Routine is the unit of adaptation logic: Name plus a Setup that
	// declares subscriptions and performs initial actuations, returning
	// errors that surface out of Service.Start.
	Routine = core.Routine
	// SetupContext registers a routine's subscriptions and exposes the
	// actuation surface during Setup.
	SetupContext = core.SetupContext
	// Subscription pairs one event scope with its typed handler; build
	// with the On* constructors.
	Subscription = core.Subscription
	// Closer is the optional Routine teardown extension: Close runs
	// during Service.Stop, before event delivery shuts down, with the
	// actuation surface still live. SetupContext.OnStop is the
	// function-style equivalent.
	Closer = core.Closer
	// Actions is the actuation and inspection surface routine handlers
	// receive; it embeds *Service.
	Actions = core.Actions
	// Service is the ORCA service: event delivery, inspection, and
	// actuation.
	Service = core.Service
	// Config assembles a service.
	Config = core.Config
	// Stats exposes service counters.
	Stats = core.Stats
	// JobSummary identifies one managed job.
	JobSummary = core.JobSummary
)

// Handler is a typed event handler: event context in, error out.
// Returning ErrSkipped reports "condition not met" — not an error, and
// guards treat the invocation as not having fired.
type Handler[C any] = core.Handler[C]

// ErrSkipped is the non-error sentinel handlers and guards return when
// the activation condition was not met.
var ErrSkipped = core.ErrSkipped

// Routine constructors and composition.
var (
	// NewRoutine builds a Routine from a name and a setup function.
	NewRoutine = core.NewRoutine
	// Compose bundles several routines into one.
	Compose = core.Compose
)

// Typed subscription constructors: each pairs a scope with its handler.
var (
	OnStart          = core.OnStart
	OnOperatorMetric = core.OnOperatorMetric
	OnPEMetric       = core.OnPEMetric
	OnPortMetric     = core.OnPortMetric
	OnPEFailure      = core.OnPEFailure
	OnHostFailure    = core.OnHostFailure
	OnJobEvent       = core.OnJobEvent
	OnTimer          = core.OnTimer
	OnUserEvent      = core.OnUserEvent
)

// NewRoutineService builds an ORCA service running the given adaptation
// routines; their Setups run inside Start and any error aborts it.
func NewRoutineService(cfg Config, routines ...Routine) (*Service, error) {
	return core.NewRoutineService(cfg, routines...)
}

// Guard combinators — reusable handler wrappers for cross-cutting
// activation logic. See the core package for the firing discipline:
// a guard records state only when its inner handler fired (returned
// nil); ErrSkipped and errors leave it untouched.

// Threshold invokes inner only when observe reports a valid value
// strictly above limit (§5.1's actuation-ratio pattern).
func Threshold[C any](observe func(*C) (float64, bool), limit float64, inner Handler[C]) Handler[C] {
	return core.Threshold(observe, limit, inner)
}

// AtLeast is the inclusive variant of Threshold (§5.3's accumulation
// trigger).
func AtLeast[C any](observe func(*C) (float64, bool), limit float64, inner Handler[C]) Handler[C] {
	return core.AtLeast(observe, limit, inner)
}

// SuppressFor skips re-invocations for d after inner fires (§5.1's
// 10-minute suppression window), measured on the service clock.
func SuppressFor[C any](d time.Duration, inner Handler[C]) Handler[C] {
	return core.SuppressFor(d, inner)
}

// Debounce invokes inner only once holds has been true for n consecutive
// deliveries.
func Debounce[C any](n int, holds func(*C) bool, inner Handler[C]) Handler[C] {
	return core.Debounce(n, holds, inner)
}

// OncePerEpoch fires inner at most once per event epoch, collapsing one
// incident's event fan-out (§4.2) into a single actuation.
func OncePerEpoch[C any](epoch func(*C) uint64, inner Handler[C]) Handler[C] {
	return core.OncePerEpoch(epoch, inner)
}

// Event kinds and contexts.
type (
	// EventKind enumerates deliverable event types.
	EventKind = core.EventKind
	// OrcaStartContext accompanies the start notification.
	OrcaStartContext = core.OrcaStartContext
	// OperatorMetricContext describes an operator metric observation.
	OperatorMetricContext = core.OperatorMetricContext
	// PEMetricContext describes a PE metric observation.
	PEMetricContext = core.PEMetricContext
	// PortMetricContext describes a port metric observation.
	PortMetricContext = core.PortMetricContext
	// PEFailureContext describes a PE crash.
	PEFailureContext = core.PEFailureContext
	// HostFailureContext describes a host failure.
	HostFailureContext = core.HostFailureContext
	// JobContext accompanies job submission/cancellation events.
	JobContext = core.JobContext
	// TimerContext accompanies timer events.
	TimerContext = core.TimerContext
	// UserEventContext accompanies user-raised events.
	UserEventContext = core.UserEventContext
)

// Scopes.
type (
	// Scope is a registered subscope.
	Scope = core.Scope
	// OperatorMetricScope selects operator metric events.
	OperatorMetricScope = core.OperatorMetricScope
	// PEMetricScope selects PE metric events.
	PEMetricScope = core.PEMetricScope
	// PortMetricScope selects port metric events.
	PortMetricScope = core.PortMetricScope
	// PEFailureScope selects PE crash events.
	PEFailureScope = core.PEFailureScope
	// HostFailureScope selects host failure events.
	HostFailureScope = core.HostFailureScope
	// JobEventScope selects job submission/cancellation events.
	JobEventScope = core.JobEventScope
	// TimerScope selects timer events.
	TimerScope = core.TimerScope
	// UserEventScope selects user events.
	UserEventScope = core.UserEventScope
)

// Application sets and dependencies (§4.4).
type (
	// AppConfig is one application configuration for the dependency
	// manager.
	AppConfig = core.AppConfig
)

// Extensions beyond the paper's implementation.
type (
	// JournalEvent is one event of the platform instance's journal. An
	// orchestrator's actuations are the events under its name (§7's
	// reliable-delivery extension: every actuation is tagged with the
	// transaction id of the event whose handler issued it).
	JournalEvent = journal.Event
	// RepartitionOptions selects the fusion strategy for
	// Service.RepartitionApplication (§4.3's recompile extension). It is
	// the same type as streams.BuildOptions.
	RepartitionOptions = compiler.Options
)

// Fusion strategies for RepartitionOptions.
const (
	FuseByTag = compiler.FuseByTag
	FuseNone  = compiler.FuseNone
	FuseAll   = compiler.FuseAll
)

// Stream graph inspection.
type (
	// Graph is the in-memory stream graph of one managed job.
	Graph = graph.Graph
	// OperatorInfo describes one operator instance.
	OperatorInfo = graph.OperatorInfo
	// CompositeInfo describes one composite instance.
	CompositeInfo = graph.CompositeInfo
	// PEInfo describes one processing element.
	PEInfo = graph.PEInfo
)

// ErrUnmanagedJob is returned by actuations addressed to jobs this
// orchestrator did not start.
var ErrUnmanagedJob = core.ErrUnmanagedJob

// Scope constructors.
var (
	NewOperatorMetricScope = core.NewOperatorMetricScope
	NewPEMetricScope       = core.NewPEMetricScope
	NewPortMetricScope     = core.NewPortMetricScope
	NewPEFailureScope      = core.NewPEFailureScope
	NewHostFailureScope    = core.NewHostFailureScope
	NewJobEventScope       = core.NewJobEventScope
	NewTimerScope          = core.NewTimerScope
	NewUserEventScope      = core.NewUserEventScope
)

// Event kinds.
const (
	KindOrcaStart      = core.KindOrcaStart
	KindOperatorMetric = core.KindOperatorMetric
	KindPEMetric       = core.KindPEMetric
	KindPortMetric     = core.KindPortMetric
	KindPEFailure      = core.KindPEFailure
	KindHostFailure    = core.KindHostFailure
	KindJobSubmitted   = core.KindJobSubmitted
	KindJobCancelled   = core.KindJobCancelled
	KindTimer          = core.KindTimer
	KindUserEvent      = core.KindUserEvent
)

// DefaultPullInterval is the default SRM metric pull period (15 s, as in
// the paper).
const DefaultPullInterval = core.DefaultPullInterval
