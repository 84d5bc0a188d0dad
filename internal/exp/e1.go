package exp

import (
	"fmt"
	"time"

	"streamorca/internal/apps"
	"streamorca/internal/extjob"
	"streamorca/internal/policies"
)

// sentiment is experiment E1 (Figure 8), adaptation to the incoming
// data distribution via external model recomputation (§5.1): start the
// sentiment application under a ModelRecompute orchestrator, shift the
// complaint distribution mid-stream, and observe threshold crossing,
// batch-job triggering, and ratio recovery. The outcome's series is
// Figure 8: the unknown/known ratio per metric epoch.
func sentiment(p Params) (*Outcome, error) {
	const (
		tweetPeriod = 100 * time.Microsecond
		// shiftAt is the tweet index where complaints shift to the
		// unknown cause (the paper's "around epoch 250" moment).
		shiftAt      = 4000
		recentWindow = 400 // the cause matcher's sliding ratio window
		threshold    = 1.0 // the actuation ratio (paper: 1.0)
		jobLatency   = 30 * time.Millisecond
		// suppression bounds re-trigger frequency (paper: 10 minutes,
		// scaled).
		suppression = 300 * time.Millisecond
		pullEvery   = 4 * time.Millisecond
	)
	budget := p.budget(30 * time.Second)
	modelID := uniq("e1-model")
	storeID := uniq("e1-store")
	extjob.SetModel(modelID, extjob.NewModel("flash", "screen"))

	app, err := apps.SentimentApp(apps.SentimentConfig{
		Name: "Sentiment", Collector: uniq("e1-display"),
		ModelID: modelID, StoreID: storeID,
		Product: "iPhone", Seed: 42,
		Count: 0, Period: tweetPeriod,
		Causes: "flash,screen", ShiftAt: shiftAt, CausesAfter: "antenna",
		RecentWindow: recentWindow,
	})
	if err != nil {
		return nil, err
	}
	policy := &policies.ModelRecompute{
		App: "Sentiment", MatcherOp: apps.MatcherOp,
		ModelID: modelID, StoreID: storeID,
		Threshold: threshold, Suppression: suppression,
		Runner: extjob.NewRunner(nil, jobLatency), MinSupport: 10,
	}
	r, err := boot(rigSpec{name: "sentiment", hosts: 2, routine: policy, app: app})
	if err != nil {
		return nil, err
	}
	defer r.close()

	model := extjob.GetModel(modelID)
	// crossed is the first epoch where the ratio exceeded the threshold,
	// recovered the first post-adaptation epoch back below 1.0.
	var crossed, recovered uint64
	firstEpoch := func(pred func(policies.RatioPoint) bool) uint64 {
		for _, pt := range policy.Series() {
			if pred(pt) {
				return pt.Epoch
			}
		}
		return 0
	}
	halt := sample(pullEvery, r.pull)
	defer halt()
	if waitUntil(budget, pullEvery, func() bool {
		if crossed == 0 {
			crossed = firstEpoch(func(pt policies.RatioPoint) bool { return pt.Ratio > threshold })
		}
		if crossed != 0 && model.Version() >= 2 {
			recovered = firstEpoch(func(pt policies.RatioPoint) bool { return pt.Epoch > crossed && pt.Ratio < 1.0 })
		}
		return recovered != 0
	}) {
		// Let a few more epochs accumulate for the plot's tail.
		time.Sleep(10 * pullEvery)
	}
	halt()
	triggers := policy.Triggers()
	if crossed == 0 {
		return nil, fmt.Errorf("sentiment: ratio never crossed the threshold")
	}
	if triggers == 0 {
		return nil, fmt.Errorf("sentiment: orchestrator never triggered the batch job")
	}
	if recovered == 0 {
		return nil, fmt.Errorf("sentiment: ratio never recovered below 1.0")
	}

	out := &Outcome{
		CSV: []string{"epoch,unknown_to_known_ratio"},
		OK:  "sentiment OK: the routine recomputed the model and the unknown/known ratio recovered",
	}
	for _, pt := range policy.Series() {
		out.CSV = append(out.CSV, fmt.Sprintf("%d,%.4f", pt.Epoch, pt.Ratio))
	}
	out.printf("crossed threshold at epoch %d, triggered %d job(s), model v%d, recovered at epoch %d",
		crossed, triggers, model.Version(), recovered)
	out.printf("recomputed causes: %v", model.Causes())
	out.Metrics = map[string]float64{
		"cross_epoch":   float64(crossed),
		"recover_epoch": float64(recovered),
		"triggers":      float64(triggers),
		"model_version": float64(model.Version()),
	}
	return out, nil
}
