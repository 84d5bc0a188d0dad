package baseline

import (
	"testing"
	"time"

	"streamorca/internal/apps"
	"streamorca/internal/extjob"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

func newInst(t *testing.T) *platform.Instance {
	t.Helper()
	inst, err := platform.NewInstance(platform.Options{
		Hosts:           []platform.HostSpec{{Name: "h1"}},
		MetricsInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	return inst
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestEmbeddedGraphAdapts is the E10 equivalence check: the Figure 1
// embedded-adaptation graph reaches the same adaptation outcome as the
// orchestrated policy — the distribution shift triggers the in-graph
// actuator, the batch job recomputes the model, and the new cause is
// known afterwards.
func TestEmbeddedGraphAdapts(t *testing.T) {
	inst := newInst(t)
	objs := inst.SAM.Objects()
	modelID, storeID := "bl-model", "bl-store"
	model := extjob.ModelIn(objs, modelID, "flash", "screen")

	app, err := EmbeddedSentimentApp(EmbeddedConfig{
		SentimentConfig: apps.SentimentConfig{
			Name: "Embedded", Collector: "bl-coll",
			ModelID: modelID, StoreID: storeID,
			Seed: 42, Count: 4000, Causes: "flash,screen",
			ShiftAt: 2000, CausesAfter: "antenna", RecentWindow: 200,
		},
		RunnerID: "bl-runner", Threshold: 1.0,
		Suppression: 50 * time.Millisecond, JobLatency: 5 * time.Millisecond,
		MinSupport: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The embedded variant has two extra operators on the graph compared
	// with the clean pipeline — the coupling the paper criticises.
	clean, err := apps.SentimentApp(apps.SentimentConfig{
		Name: "Clean", Collector: "bl-unused", ModelID: modelID, StoreID: storeID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Operators) != len(clean.Operators)+2 {
		t.Fatalf("embedded graph has %d operators, clean %d", len(app.Operators), len(clean.Operators))
	}
	if app.OperatorByName("op8detector") == nil || app.OperatorByName("op9trigger") == nil {
		t.Fatal("control operators missing from the embedded graph")
	}

	if _, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	coll := ops.Collector(objs, "bl-coll")
	waitFor(t, "pipeline completion", func() bool { return coll.Finals() == 1 })
	waitFor(t, "model refresh", func() bool { return model.Version() >= 2 })
	if !model.Contains("antenna") {
		t.Fatalf("embedded adaptation missed the new cause: %v", model.Causes())
	}
}

// detectorCtx is a minimal opapi.Context for unit-testing the detector.
type detectorCtx struct {
	triggers int
}

func (c *detectorCtx) Name() string                         { return "op8" }
func (c *detectorCtx) Params() opapi.Params                 { return opapi.Params{"threshold": "1.0", "window": "20"} }
func (c *detectorCtx) NumOutputs() int                      { return 1 }
func (c *detectorCtx) InputSchema(int) *tuple.Schema        { return apps.CauseSchema }
func (c *detectorCtx) OutputSchema(int) *tuple.Schema       { return TriggerSchema }
func (c *detectorCtx) Clock() vclock.Clock                  { return vclock.Real() }
func (c *detectorCtx) Done() <-chan struct{}                { return nil }
func (c *detectorCtx) CustomMetric(string) *metrics.Counter { return &metrics.Counter{} }

func (c *detectorCtx) Submit(int, tuple.Tuple) error {
	c.triggers++
	return nil
}

func (c *detectorCtx) SubmitMark(int, tuple.Mark) error { return nil }

func TestThresholdDetectorRearms(t *testing.T) {
	// Unit-level: the detector fires once per crossing, re-arming when
	// the ratio falls back under the threshold.
	d := &thresholdDetector{}
	ctx := &detectorCtx{}
	if err := d.Open(ctx); err != nil {
		t.Fatal(err)
	}
	emit := func(known bool) {
		tup := tuple.Build(apps.CauseSchema).Str("user", "u").Str("cause", "c").Bool("known", known).Done()
		if err := d.Process(0, tup); err != nil {
			t.Fatal(err)
		}
	}
	// 10 unknown in a row: crosses once.
	for i := 0; i < 10; i++ {
		emit(false)
	}
	if ctx.triggers != 1 {
		t.Fatalf("triggers after crossing = %d", ctx.triggers)
	}
	// Stay crossed: no duplicates.
	for i := 0; i < 10; i++ {
		emit(false)
	}
	if ctx.triggers != 1 {
		t.Fatalf("detector did not latch: %d", ctx.triggers)
	}
	// Recover, then cross again: second trigger.
	for i := 0; i < 50; i++ {
		emit(true)
	}
	for i := 0; i < 60; i++ {
		emit(false)
	}
	if ctx.triggers != 2 {
		t.Fatalf("triggers after re-crossing = %d", ctx.triggers)
	}
}

// TestBaselineKindsDeclareModels pins the descriptor contract for the
// embedded-adaptation kinds.
func TestBaselineKindsDeclareModels(t *testing.T) {
	for _, kind := range []string{KindThresholdDetector, KindJobTrigger} {
		if opapi.Default.Model(kind) == nil {
			t.Errorf("kind %s registered without an operator model", kind)
		}
	}
}
