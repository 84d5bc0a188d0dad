package policies

import (
	"fmt"
	"sync"
	"time"

	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/metrics"
)

// WidthChange records one region-width actuation: when it happened, the
// transition, and the signals that justified it.
type WidthChange struct {
	At   time.Time
	From int
	To   int
	// IngestPerSec is the region ingress rate (the split PE's
	// ingestRatePerSec gauge) observed by the delivery that fired.
	IngestPerSec int64
	// QueueDepth is the region's worst operator queueSize observed in
	// the most recent metric pull round at firing time.
	QueueDepth int64
}

// The fission routine's constants.
const (
	// DefaultFissionMaxWidth caps auto-fission at three replicas.
	DefaultFissionMaxWidth = 3
	// FissionDebounce is how many consecutive overload observations the
	// widen gate demands before it resizes.
	FissionDebounce = 2
)

// Fission is the elastic data-parallel adaptation routine — the
// paper-native demonstration that an ORCA routine, not the dataplane,
// decides when a parallel region scales. The dataplane only mechanises
// width changes (SAM's ResizeRegion actuation); the decision lives
// here, as ordinary orchestrator logic built from the same subscription
// and guard vocabulary as every other routine.
//
// The routine submits an application containing a key-partitioned
// parallel region and watches the region's ingress: the split PE's
// ingestRatePerSec gauge is the offered load entering the region,
// independent of the current width. It also observes the application's
// operator queueSize gauges, so the recorded width changes carry the
// queue depth beside the rate that justified them. When the ingress
// rate stays above WidenAboveRate for FissionDebounce consecutive
// observations, the routine actuates ResizeRegion to width+1, up to
// MaxWidth. The guard composition is the usual one: a Threshold anchors
// the observation, a Debounce rides out one-pull spikes, and an
// optional SuppressFor cooldown keeps a sustained overload from issuing
// a resize on every pull round while the previous resize is still
// warming up.
type Fission struct {
	// App names the registered application to submit. It must contain
	// the parallel region named by Region (an operator declared with
	// Parallel in the builder).
	App string
	// Region is the region's name — the name of the operator whose
	// declaration the compiler expanded into split/replicas/merge.
	Region string
	// SubmitParams are the submission parameters for the job.
	SubmitParams map[string]string
	// MaxWidth caps how wide the routine will grow the region;
	// default DefaultFissionMaxWidth.
	MaxWidth int
	// WidenAboveRate is the region ingress rate (tuples/sec, strictly
	// above) that counts as overload. Required.
	WidenAboveRate int64
	// Cooldown, when positive, suppresses further widening for that
	// long after a successful resize.
	Cooldown time.Duration

	// gate is the composed widen handler, built once in Setup (tests
	// drive it directly with synthetic contexts).
	gate core.Handler[core.PEMetricContext]

	mu         sync.Mutex
	job        ids.JobID
	splitPE    ids.PEID
	widenings  int
	queue      int64 // worst queueSize of the newest pull epoch
	queueEpoch uint64
	log        []WidthChange
}

// Name implements core.Routine.
func (p *Fission) Name() string { return "fission" }

// Setup submits the application, locates the region's ingress PE (the
// auto-inserted split), builds the widen gate, and subscribes to the
// job's ingress rates and queue depths. Every failure — unknown
// application, missing region, rejected submission — propagates out of
// Service.Start.
func (p *Fission) Setup(sc *core.SetupContext) error {
	act := sc.Actions()
	if p.MaxWidth <= 0 {
		p.MaxWidth = DefaultFissionMaxWidth
	}
	if p.WidenAboveRate <= 0 {
		return fmt.Errorf("fission: WidenAboveRate must be positive")
	}
	app, ok := act.RegisteredApplication(p.App)
	if !ok {
		return fmt.Errorf("fission: application %q not registered", p.App)
	}
	region := app.Region(p.Region)
	if region == nil {
		return fmt.Errorf("fission: application %q has no parallel region %q", p.App, p.Region)
	}
	job, err := act.SubmitApplication(p.App, p.SubmitParams)
	if err != nil {
		return fmt.Errorf("fission: submit %s: %w", p.App, err)
	}
	splitPE, ok := act.PEOfOperator(job, region.Split)
	if !ok {
		return fmt.Errorf("fission: job %s has no PE for region ingress %q", job, region.Split)
	}
	p.mu.Lock()
	p.job, p.splitPE = job, splitPE
	p.mu.Unlock()
	p.gate = p.widenGate()
	return sc.Subscribe(
		core.OnPEMetric(
			core.NewPEMetricScope("fissionRates").
				AddApplicationFilter(p.App).
				AddPEMetric(metrics.PEIngestRate),
			p.gate),
		core.OnOperatorMetric(
			core.NewOperatorMetricScope("fissionQueues").
				AddApplicationFilter(p.App).
				AddOperatorMetric(metrics.OpQueueSize),
			func(ctx *core.OperatorMetricContext, _ *core.Actions) error {
				p.observeQueue(ctx)
				return core.ErrSkipped
			}))
}

// widenGate builds the widen handler: only anchored ingress
// observations of the region's split PE (Threshold, limit -1: rates are
// never negative) reach the Debounce, whose holds predicate checks the
// overload condition. A healthy observation resets the streak;
// FissionDebounce consecutive overloaded ones actuate the resize,
// optionally cooled down by SuppressFor.
func (p *Fission) widenGate() core.Handler[core.PEMetricContext] {
	widen := core.Handler[core.PEMetricContext](p.widen)
	if p.Cooldown > 0 {
		widen = core.SuppressFor(p.Cooldown, widen)
	}
	debounced := core.Debounce(FissionDebounce,
		func(ctx *core.PEMetricContext) bool { return ctx.Value > p.WidenAboveRate },
		widen)
	return core.Threshold(
		func(ctx *core.PEMetricContext) (float64, bool) {
			return float64(ctx.Value), p.isIngress(ctx)
		},
		-1,
		debounced)
}

// isIngress reports whether a rate observation is the ingress of the
// region's split PE — the only deliveries the widen gate evaluates.
func (p *Fission) isIngress(ctx *core.PEMetricContext) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ctx.Job == p.job && ctx.PE == p.splitPE && ctx.Metric == metrics.PEIngestRate
}

// observeQueue tracks the job's worst operator queue depth per metric
// epoch for the width log — queues from one pull round compare against
// each other, and a new round starts the high-water mark over.
func (p *Fission) observeQueue(ctx *core.OperatorMetricContext) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ctx.Job != p.job {
		return
	}
	if ctx.Epoch != p.queueEpoch {
		p.queueEpoch, p.queue = ctx.Epoch, 0
	}
	if ctx.Value > p.queue {
		p.queue = ctx.Value
	}
}

// widen is the actuation: grow the region by one replica, up to
// MaxWidth. The current width is the platform's, never a copy. At the
// cap it skips, leaving the debounce streak consumed only by real
// actuations.
func (p *Fission) widen(ctx *core.PEMetricContext, act *core.Actions) error {
	job := p.Job()
	from, ok := act.RegionWidth(job, p.Region)
	if !ok {
		return fmt.Errorf("fission: job %s has no region %q", job, p.Region)
	}
	if from >= p.MaxWidth {
		return core.ErrSkipped
	}
	next := from + 1
	if err := act.ResizeRegion(job, p.Region, next); err != nil {
		return fmt.Errorf("fission: widen %s/%s to %d: %w", job, p.Region, next, err)
	}
	p.mu.Lock()
	p.widenings++
	p.log = append(p.log, WidthChange{
		At: ctx.At, From: from, To: next,
		IngestPerSec: ctx.Value, QueueDepth: p.queue,
	})
	p.mu.Unlock()
	return nil
}

// Job returns the submitted job's id.
func (p *Fission) Job() ids.JobID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.job
}

// Widenings returns how many resizes the routine has actuated.
func (p *Fission) Widenings() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.widenings
}

// Log returns the width-change history, oldest first.
func (p *Fission) Log() []WidthChange {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]WidthChange(nil), p.log...)
}
