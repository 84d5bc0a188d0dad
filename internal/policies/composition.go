package policies

import (
	"fmt"
	"sync"

	"streamorca/internal/apps"
	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/metrics"
)

// Composition is the §5.3 adaptation routine: it starts the C2
// applications (their C1 dependencies come up automatically through the
// dependency manager), watches the aggregate per-attribute
// profile-discovery custom metrics across all C2 applications, spawns a
// C3 segmentation job when enough *new* profiles with an attribute
// accumulated (a core.AtLeast guard over the aggregate), and cancels
// each C3 job when its sink reports a final punctuation.
type Composition struct {
	// C2Configs are the dependency-manager configuration ids of the C2
	// applications to start (their C1 dependencies follow automatically).
	C2Configs []string
	// C3App names the registered segmentation application
	// (AttributeAggregator); it is submitted with an "attribute"
	// parameter.
	C3App string
	// C3Collector produces the collector id parameter per attribute.
	C3Collector func(attr string) string
	// Threshold is the number of newly discovered profiles with an
	// attribute that triggers a C3 submission (paper example: 1500).
	Threshold int64

	mu        sync.Mutex
	perApp    map[string]map[string]int64 // attr -> app -> latest count
	totals    map[string]int64            // attr -> last observed aggregate count
	lastSub   map[string]int64            // attr -> aggregate count at last submission
	activeC3  map[string]ids.JobID        // attr -> running C3 job
	jobToAttr map[ids.JobID]string
	subs      []string // attributes, in submission order
	cancels   []string // attributes, in cancellation order
}

// metricToAttr maps the enricher's custom metric names to attributes.
var metricToAttr = map[string]string{
	apps.MetricProfilesWithAge:      "age",
	apps.MetricProfilesWithGender:   "gender",
	apps.MetricProfilesWithLocation: "location",
}

// Name implements core.Routine.
func (p *Composition) Name() string { return "composition" }

// Setup starts the C2 applications (C1 readers come up as dependencies,
// §5.3's actuation) and registers the two metric subscriptions. A
// failing StartApp or a duplicate scope key propagates out of
// Service.Start.
func (p *Composition) Setup(sc *core.SetupContext) error {
	p.mu.Lock()
	p.perApp = make(map[string]map[string]int64)
	p.totals = make(map[string]int64)
	p.lastSub = make(map[string]int64)
	p.activeC3 = make(map[string]ids.JobID)
	p.jobToAttr = make(map[ids.JobID]string)
	p.mu.Unlock()

	act := sc.Actions()
	for _, id := range p.C2Configs {
		if err := act.StartApp(id); err != nil {
			return fmt.Errorf("composition: start %s: %w", id, err)
		}
	}
	c2scope := core.NewOperatorMetricScope("c2profiles").
		CustomMetricsOnly().
		AddOperatorMetric(apps.MetricProfilesWithAge, apps.MetricProfilesWithGender, apps.MetricProfilesWithLocation)
	finalScope := core.NewPortMetricScope("c3final").
		AddApplicationFilter(p.C3App).
		AddPortMetric(metrics.PortFinalPunctsQueued).
		SetDirection(metrics.Input)
	return sc.Subscribe(
		core.OnOperatorMetric(c2scope,
			core.AtLeast(p.observeNewProfiles, float64(p.Threshold), p.submitC3)),
		core.OnPortMetric(finalScope, p.cancelFinished),
	)
}

// observeNewProfiles aggregates per-attribute discovery counts across
// all C2 applications (duplicates included, as the paper notes) and
// reports how many new profiles accumulated since the last submission;
// an attribute whose C3 job is still running is not evaluable.
func (p *Composition) observeNewProfiles(ctx *core.OperatorMetricContext) (float64, bool) {
	attr, ok := metricToAttr[ctx.Metric]
	if !ok {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.perApp[attr] == nil {
		p.perApp[attr] = make(map[string]int64)
	}
	p.perApp[attr][ctx.App] = ctx.Value
	var total int64
	for _, v := range p.perApp[attr] {
		total += v
	}
	p.totals[attr] = total
	if _, busy := p.activeC3[attr]; busy {
		return 0, false
	}
	return float64(total - p.lastSub[attr]), true
}

// submitC3 spawns the segmentation job for the metric's attribute. A
// rejected submission is an error (journalled and counted by the service)
// and leaves the aggregate untouched, so the next metric round retries.
func (p *Composition) submitC3(ctx *core.OperatorMetricContext, act *core.Actions) error {
	attr := metricToAttr[ctx.Metric]
	params := map[string]string{"attribute": attr}
	if p.C3Collector != nil {
		params["collector"] = p.C3Collector(attr)
	} else {
		params["collector"] = "segment-" + attr
	}
	job, err := act.SubmitApplication(p.C3App, params)
	if err != nil {
		return fmt.Errorf("composition: submit %s for %q: %w", p.C3App, attr, err)
	}
	p.mu.Lock()
	p.activeC3[attr] = job
	p.jobToAttr[job] = attr
	p.lastSub[attr] = p.totals[attr]
	p.subs = append(p.subs, attr)
	p.mu.Unlock()
	return nil
}

// cancelFinished cancels a C3 job once its sink saw the final
// punctuation — the application has processed all of its tuples (§5.3).
func (p *Composition) cancelFinished(ctx *core.PortMetricContext, act *core.Actions) error {
	if ctx.Metric != metrics.PortFinalPunctsQueued || ctx.Value < 1 {
		return core.ErrSkipped
	}
	p.mu.Lock()
	attr, ok := p.jobToAttr[ctx.Job]
	if ok {
		delete(p.jobToAttr, ctx.Job)
		delete(p.activeC3, attr)
		p.cancels = append(p.cancels, attr)
	}
	p.mu.Unlock()
	if !ok {
		return core.ErrSkipped
	}
	if err := act.CancelJob(ctx.Job); err != nil {
		return fmt.Errorf("composition: cancel %s: %w", ctx.Job, err)
	}
	return nil
}

// Submissions returns the attributes for which C3 jobs were submitted,
// in order.
func (p *Composition) Submissions() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.subs...)
}

// Cancellations returns the attributes whose C3 jobs were cancelled, in
// order.
func (p *Composition) Cancellations() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.cancels...)
}
