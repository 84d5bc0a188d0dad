// Package policies implements the paper's three use-case ORCA logics
// (§5) as composable adaptation routines: adaptation to incoming data
// distribution via external model recomputation (§5.1), replica failover
// on PE failures (§5.2), and on-demand dynamic application composition
// (§5.3). Each policy is pure control logic against the orchestrator
// API — the applications they manage live in internal/apps, keeping
// control and data processing code separate, which is the paper's
// central design argument. Cross-cutting activation logic (actuation
// thresholds, suppression windows, per-incident dedup) is expressed
// through the core guard combinators rather than bespoke policy state.
package policies

import (
	"fmt"
	"sync"
	"time"

	"streamorca/internal/apps"
	"streamorca/internal/core"
	"streamorca/internal/extjob"
	"streamorca/internal/ids"
)

// RatioPoint is one observation of the unknown/known cause ratio at a
// metric epoch — a point on Figure 8's curve.
type RatioPoint struct {
	Epoch uint64
	Ratio float64
}

// ModelRecompute is the §5.1 adaptation routine: it watches the cause
// matcher's custom metrics and, when the unknown/known ratio exceeds the
// actuation threshold, launches the external model-recomputation job.
// The ratio test and the re-trigger bound are composed from the shared
// guards (core.Threshold around core.SuppressFor) rather than tracked in
// policy fields.
type ModelRecompute struct {
	// App names the registered sentiment application; the routine submits
	// it during Setup with SubmitParams.
	App          string
	SubmitParams map[string]string
	// MatcherOp is the cause matcher's instance name.
	MatcherOp string
	// Model and Store are the shared model and corpus the application's
	// cause matcher reads and appends to.
	Model *extjob.Model
	Store *extjob.Store
	// Threshold is the actuation ratio (paper: 1.0).
	Threshold float64
	// Suppression bounds re-trigger frequency (paper: 10 minutes).
	Suppression time.Duration
	// Runner executes the batch job.
	Runner *extjob.Runner
	// MinSupport is the batch job's cause-frequency threshold.
	MinSupport int

	mu           sync.Mutex
	job          ids.JobID
	known        int64
	unknown      int64
	knownEpoch   uint64
	unknownEpoch uint64
	triggers     int
	series       []RatioPoint

	// handle is the composed guarded handler, built once in Setup.
	handle core.Handler[core.OperatorMetricContext]
}

// Name implements core.Routine.
func (p *ModelRecompute) Name() string { return "modelRecompute" }

// Setup submits the application and subscribes the guarded ratio
// handler to the cause matcher's custom metrics. Errors (unknown
// application, rejected submission, duplicate scope key) propagate out
// of Service.Start.
func (p *ModelRecompute) Setup(sc *core.SetupContext) error {
	job, err := sc.Actions().SubmitApplication(p.App, p.SubmitParams)
	if err != nil {
		return fmt.Errorf("modelRecompute: submit %s: %w", p.App, err)
	}
	p.mu.Lock()
	p.job = job
	p.mu.Unlock()
	scope := core.NewOperatorMetricScope("causeMetrics").
		AddApplicationFilter(p.App).
		AddOperatorNameFilter(p.MatcherOp).
		AddOperatorMetric(apps.MetricRecentKnownCauses, apps.MetricRecentUnknownCauses).
		CustomMetricsOnly()
	p.handle = core.Threshold(p.observeRatio, p.Threshold,
		core.SuppressFor(p.Suppression, p.recompute))
	return sc.Subscribe(core.OnOperatorMetric(scope, p.handle))
}

// observeRatio implements the Figure 6 pattern as a Threshold guard
// observation: record each metric with its epoch and report a ratio only
// when both metrics come from the same measurement round.
func (p *ModelRecompute) observeRatio(ctx *core.OperatorMetricContext) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ctx.Metric {
	case apps.MetricRecentKnownCauses:
		p.known, p.knownEpoch = ctx.Value, ctx.Epoch
	case apps.MetricRecentUnknownCauses:
		p.unknown, p.unknownEpoch = ctx.Value, ctx.Epoch
	default:
		return 0, false
	}
	if p.knownEpoch != p.unknownEpoch || p.known+p.unknown == 0 {
		return 0, false
	}
	den := p.known
	if den == 0 {
		den = 1
	}
	ratio := float64(p.unknown) / float64(den)
	p.series = append(p.series, RatioPoint{Epoch: ctx.Epoch, Ratio: ratio})
	return ratio, true
}

// recompute launches the batch job. Skipping while a job is in flight
// (or when submission is refused) leaves the suppression window unarmed,
// so the next crossing retries.
func (p *ModelRecompute) recompute(ctx *core.OperatorMetricContext, act *core.Actions) error {
	if p.Runner.Running() {
		return core.ErrSkipped
	}
	if err := p.Runner.Submit(p.Store, p.Model, p.MinSupport, nil); err != nil {
		return fmt.Errorf("modelRecompute: batch job: %w", err)
	}
	p.mu.Lock()
	p.triggers++
	p.mu.Unlock()
	return nil
}

// Triggers returns how many batch jobs the policy launched.
func (p *ModelRecompute) Triggers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.triggers
}

// Series returns the recorded ratio-per-epoch curve (Figure 8).
func (p *ModelRecompute) Series() []RatioPoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]RatioPoint(nil), p.series...)
}
