// Package baseline implements the approaches the paper argues against
// (§1, Figure 1): embedding the adaptation logic into the stream graph as
// extra operators (op8 detecting the actuation condition, op9 executing
// the actuation). It reaches the same adaptation outcome as the
// orchestrated policy, but couples control logic to the data path — the
// E10 comparison measures exactly that coupling (extra graph operators,
// extra hot-path tuple traffic, zero policy reuse).
package baseline

import (
	"fmt"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/apps"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/extjob"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/tuple"
)

// Operator kinds of the embedded-adaptation graph.
const (
	KindThresholdDetector = "ThresholdDetector"
	KindJobTrigger        = "JobTrigger"
)

// MetricJobsTriggered counts external jobs the embedded trigger
// operator started — the custom metric experiments compare against the
// orchestrated variant.
const MetricJobsTriggered = "nJobsTriggered"

func init() {
	opapi.Default.RegisterOp(KindThresholdDetector, func() opapi.Operator { return &thresholdDetector{} }, &opapi.OpModel{
		Doc:     "emits a trigger tuple when the unknown/known cause ratio crosses a threshold",
		Inputs:  opapi.ExactlyPorts(1).WithAttrs(tuple.Attribute{Name: "known", Type: tuple.Bool}),
		Outputs: opapi.ExactlyPorts(1),
		Params: []opapi.ParamSpec{
			{Name: "threshold", Type: opapi.ParamFloat, Default: "1.0", Doc: "ratio that fires the trigger"},
			{Name: "window", Type: opapi.ParamInt, Default: "200", Min: opapi.Bound(1), Doc: "sliding window of recent matches, in tuples"},
		},
	})
	opapi.Default.RegisterOp(KindJobTrigger, func() opapi.Operator { return &jobTrigger{} }, &opapi.OpModel{
		Doc:    "invokes the external batch job on a trigger tuple, with suppression",
		Inputs: opapi.ExactlyPorts(1),
		Params: []opapi.ParamSpec{
			{Name: "runnerId", Type: opapi.ParamString, Required: true, Doc: "shared batch-job runner id"},
			{Name: "modelId", Type: opapi.ParamString, Required: true, Doc: "shared cause model id"},
			{Name: "storeId", Type: opapi.ParamString, Required: true, Doc: "shared corpus id"},
			{Name: "minSupport", Type: opapi.ParamInt, Default: "10", Doc: "minimum corpus occurrences to enter the model"},
			{Name: "suppression", Type: opapi.ParamDuration, Default: "10m", Min: opapi.Bound(0), Doc: "interval during which repeat triggers are dropped"},
			{Name: "jobLatency", Type: opapi.ParamDuration, Default: "20ms", Min: opapi.Bound(0), Doc: "simulated batch-job duration"},
		},
	})
}

// TriggerSchema is the stream between the detector (op8) and the
// actuator (op9).
var TriggerSchema = tuple.MustSchema(
	tuple.Attribute{Name: "reason", Type: tuple.String},
	tuple.Attribute{Name: "ratio", Type: tuple.Float},
)

// thresholdDetector is Figure 1's op8: it consumes the cause-matched
// stream, recomputes the unknown/known ratio over a sliding window of
// matches on the hot path, and emits a trigger tuple when the ratio
// crosses the threshold.
//
// Parameters: threshold (default 1.0), window (tuples, default 200).
type thresholdDetector struct {
	opapi.Base
	ctx       opapi.Context
	threshold float64
	window    int
	recent    []bool
	known     int
	fired     bool
}

func (d *thresholdDetector) Open(ctx opapi.Context) error {
	d.ctx = ctx
	cfg := ctx.Params().Bind()
	d.threshold = cfg.Float("threshold", 1.0)
	d.window = int(cfg.Int("window", 200))
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("ThresholdDetector %s: %w", ctx.Name(), err)
	}
	if d.window <= 0 {
		return fmt.Errorf("ThresholdDetector %s: window must be positive", ctx.Name())
	}
	return nil
}

func (d *thresholdDetector) Process(port int, t tuple.Tuple) error {
	known := t.Bool("known")
	d.recent = append(d.recent, known)
	if known {
		d.known++
	}
	if len(d.recent) > d.window {
		if d.recent[0] {
			d.known--
		}
		d.recent = d.recent[1:]
	}
	den := d.known
	if den == 0 {
		den = 1
	}
	ratio := float64(len(d.recent)-d.known) / float64(den)
	if ratio > d.threshold && !d.fired {
		d.fired = true
		out := tuple.Build(d.ctx.OutputSchema(0)).
			Str("reason", "unknown causes exceed known").Float("ratio", ratio).Done()
		return d.ctx.Submit(0, out)
	}
	if ratio <= d.threshold {
		d.fired = false // re-arm once the condition clears
	}
	return nil
}

// SaveState snapshots the detection window and trigger latch, so a
// restarted embedded detector neither re-fires a trigger it already
// sent nor forgets the ratio it was tracking.
func (d *thresholdDetector) SaveState(e *ckpt.Encoder) error {
	e.PutBool(d.fired)
	e.PutUint(uint64(len(d.recent)))
	for _, known := range d.recent {
		e.PutBool(known)
	}
	return nil
}

// RestoreState rebuilds the window and latch from the snapshot.
func (d *thresholdDetector) RestoreState(dec *ckpt.Decoder) error {
	fired := dec.Bool()
	n := dec.Uint()
	if err := dec.Err(); err != nil {
		return err
	}
	// Clamp before converting: n is decoder-controlled, and a hostile
	// value past maxint would go negative through int().
	recent := make([]bool, 0, min(n, uint64(d.window)))
	known := 0
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		k := dec.Bool()
		recent = append(recent, k)
		if k {
			known++
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	d.fired, d.recent, d.known = fired, recent, known
	return nil
}

// jobTrigger is Figure 1's op9: on a trigger tuple it invokes the
// external batch job directly from inside the graph, with a suppression
// interval.
//
// Parameters: modelId, storeId, runnerId, minSupport, suppression.
type jobTrigger struct {
	opapi.Base
	ctx         opapi.Context
	runner      *extjob.Runner
	model       *extjob.Model
	store       *extjob.Store
	minSupport  int
	suppression time.Duration
	last        time.Time
	fired       bool
}

func (j *jobTrigger) Open(ctx opapi.Context) error {
	j.ctx = ctx
	cfg := ctx.Params().Bind()
	runnerID := cfg.Str("runnerId", "")
	modelID := cfg.Str("modelId", "")
	storeID := cfg.Str("storeId", "")
	latency := cfg.Duration("jobLatency", 20*time.Millisecond)
	j.minSupport = int(cfg.Int("minSupport", 10))
	j.suppression = cfg.Duration("suppression", 10*time.Minute)
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("JobTrigger %s: %w", ctx.Name(), err)
	}
	if runnerID == "" || modelID == "" || storeID == "" {
		return fmt.Errorf("JobTrigger %s: runnerId, modelId and storeId required", ctx.Name())
	}
	// The runner is the instance's, so a restarted trigger sees the job
	// its predecessor started.
	objs := opapi.ObjectsOf(ctx)
	j.runner = opapi.Obtain(objs, runnerID, func() *extjob.Runner { return extjob.NewRunner(ctx.Clock(), latency) })
	j.model = extjob.ModelIn(objs, modelID)
	j.store = extjob.StoreIn(objs, storeID)
	return nil
}

func (j *jobTrigger) Process(port int, t tuple.Tuple) error {
	now := j.ctx.Clock().Now()
	if j.fired && now.Sub(j.last) < j.suppression {
		return nil
	}
	if j.runner.Running() {
		return nil
	}
	if err := j.runner.Submit(j.store, j.model, j.minSupport, nil); err != nil {
		return nil // already running: drop the trigger
	}
	j.fired = true
	j.last = now
	j.ctx.CustomMetric(MetricJobsTriggered).Inc()
	return nil
}

// EmbeddedConfig parameterises the embedded-adaptation sentiment graph.
type EmbeddedConfig struct {
	apps.SentimentConfig
	RunnerID    string
	Threshold   float64
	Suppression time.Duration
	JobLatency  time.Duration
	MinSupport  int
}

// EmbeddedSentimentApp builds the Figure 1 graph: the sentiment pipeline
// plus op8/op9 embedded into the application. Contrast with
// apps.SentimentApp + policies.ModelRecompute, where the same pipeline
// stays control-free and the policy is reusable.
func EmbeddedSentimentApp(cfg EmbeddedConfig) (*adl.Application, error) {
	if cfg.Name == "" {
		cfg.Name = "SentimentEmbedded"
	}
	if cfg.Product == "" {
		cfg.Product = "iPhone"
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 1.0
	}
	b := compiler.NewApp(cfg.Name)
	src := b.AddOperator("tweets", apps.KindTweetSource).Out(apps.TweetSchema).
		Param("product", cfg.Product).
		Param("seed", apps.Itoa(cfg.Seed)).
		Param("count", apps.Itoa(cfg.Count)).
		Param("period", cfg.Period.String()).
		Param("causes", cfg.Causes).
		Param("shiftAt", apps.Itoa(cfg.ShiftAt)).
		Param("causesAfter", cfg.CausesAfter)
	filt := b.AddOperator("productFilter", ops.KindFilter).In(apps.TweetSchema).Out(apps.TweetSchema).
		Param("attr", "product").Param("op", "eq").Param("value", cfg.Product)
	classify := b.AddOperator("classify", apps.KindSentiment).In(apps.TweetSchema).Out(apps.TweetSchema)
	match := b.AddOperator("causes", apps.KindCauseMatcher).In(apps.TweetSchema).Out(apps.CauseSchema).
		Param("modelId", cfg.ModelID).
		Param("storeId", cfg.StoreID).
		Param("recentWindow", apps.Itoa(cfg.RecentWindow))
	sink := b.AddOperator("display", ops.KindCollectSink).In(apps.CauseSchema).
		Param("collectorId", cfg.Collector).Param("limit", "1000")
	// The embedded control operators (op8 and op9 of Figure 1).
	detector := b.AddOperator("op8detector", KindThresholdDetector).In(apps.CauseSchema).Out(TriggerSchema).
		Param("threshold", fmt.Sprintf("%g", cfg.Threshold)).
		Param("window", apps.Itoa(cfg.RecentWindow))
	trigger := b.AddOperator("op9trigger", KindJobTrigger).In(TriggerSchema).
		Param("runnerId", cfg.RunnerID).
		Param("modelId", cfg.ModelID).
		Param("storeId", cfg.StoreID).
		Param("minSupport", apps.Itoa(int64(cfg.MinSupport))).
		Param("suppression", cfg.Suppression.String()).
		Param("jobLatency", cfg.JobLatency.String())
	b.Connect(src, 0, filt, 0)
	b.Connect(filt, 0, classify, 0)
	b.Connect(classify, 0, match, 0)
	b.Connect(match, 0, sink, 0)
	b.Connect(match, 0, detector, 0) // control rides the data path
	b.Connect(detector, 0, trigger, 0)
	return b.Build(compiler.Options{Fusion: compiler.FuseAll})
}
