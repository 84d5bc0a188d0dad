package exp

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"streamorca/internal/chaos"
	"streamorca/internal/ops"
	"streamorca/internal/policies"
)

// chaosFaults is the number of scheduled fault events.
const chaosFaults = 16

func chaosScenario(p Params) (*Outcome, error) { return runChaos(p, nil) }

// runChaos is the chaos scenario: a checkpointing three-host platform
// runs the aggregation pipeline while a seeded chaos.Schedule injects PE
// kills, host outages, checkpoint-store faults, and metric delays
// (restricted to kinds when non-nil), and the Restart routine rides
// SAM's bounded-retry actuations through it. After the injection window
// the recovery sweep disarms the store, revives the cluster, and
// restarts whatever is still down; the scenario fails if any PE is lost
// forever or the pipeline stays silent. One seed reproduces the whole
// run's fault sequence and retry jitter.
func runChaos(p Params, kinds []chaos.Kind) (*Outcome, error) {
	var (
		window = cmp.Or(p.Duration, stretch(800*time.Millisecond, 2))
		tick   = stretch(time.Millisecond, 4)
		budget = p.budget(30 * time.Second)
	)
	if p.Rate > 0 {
		tick = time.Duration(float64(time.Second) / p.Rate)
	}
	app, err := aggPipeline("ChaosSmoke", "chaos", tick)
	if err != nil {
		return nil, err
	}
	// Abandoned restarts are counted, not re-actuated: the sweep recovers
	// them, and restarting from inside the handler would hide the retry
	// budget the scenario measures.
	routine := &policies.Restart{App: app.Name, Submit: true}
	// The HC push period is deliberately short and un-flushed, so
	// MetricDelay faults displace real deliveries; the Ckpt* faults
	// interfere with the periodic snapshots.
	r, err := boot(rigSpec{
		name: "chaos", hosts: 3, store: memStore, dir: p.StoreDir,
		metrics: stretch(20*time.Millisecond, 2), ckptEvery: stretch(25*time.Millisecond, 2),
		retry: true, seed: p.Seed, routine: routine, app: app,
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	coll := ops.Collector(r.inst.SAM.Objects(), "chaos")

	if !waitUntil(budget/4, time.Millisecond, func() bool { return coll.Len() >= 5 }) {
		return nil, fmt.Errorf("chaos: pipeline never warmed up")
	}

	// The sampler records the gaps between consecutive output arrivals
	// over the whole run — the recovery-gap statistics.
	var gaps []time.Duration
	lastLen, lastAt := coll.Len(), time.Now()
	halt := sample(2*time.Millisecond, func() {
		if n := coll.Len(); n > lastLen {
			now := time.Now()
			gaps = append(gaps, now.Sub(lastAt))
			lastLen, lastAt = n, now
		}
	})
	defer halt()
	fingerprint, injected, err := r.shake(p.Seed, chaosFaults, window, kinds, len(app.PEs), budget/2)
	halt()
	if err != nil {
		return nil, err
	}
	preLen := coll.Len()
	if !waitUntil(budget/4, time.Millisecond, func() bool { return coll.Len() > preLen }) {
		return nil, fmt.Errorf("chaos: no output after recovery sweep")
	}

	var maxGap, p99Gap time.Duration
	if len(gaps) > 0 {
		slices.Sort(gaps)
		maxGap, p99Gap = gaps[len(gaps)-1], gaps[len(gaps)*99/100]
	}
	// Journalled restart attempts, and the ones that ended in success.
	attempted, succeeded := 0, 0
	for _, rec := range r.inst.SAM.Journal().Events() {
		if rec.Source == "sam" && rec.Action == "restart" {
			attempted++
			if rec.Err == "" {
				succeeded++
			}
		}
	}
	store, final := r.store.Stats(), coll.Len()

	out := &Outcome{
		Deterministic: fmt.Sprintf("seed=%d faults=%d fingerprint=%s", p.Seed, chaosFaults, fingerprint),
		OK:            "chaos OK: zero PEs lost, pipeline recovered after the sweep",
	}
	out.printf("schedule fingerprint: %s", fingerprint)
	out.printf("faults applied %d, skipped %d; restarts %d/%d attempts succeeded; degradations %d",
		injected.Applied, injected.Skipped, succeeded, attempted, routine.Abandoned())
	out.printf("store: %d clean saves, %d failed, %d dropped, %d torn",
		store.Saves, store.FailedSaves, store.DroppedSaves, store.TornSaves)
	out.printf("output gaps: max %.1fms, p99 %.1fms; final count %d", ms(maxGap), ms(p99Gap), final)
	out.Metrics = map[string]float64{
		"faults_applied":     float64(injected.Applied),
		"faults_skipped":     float64(injected.Skipped),
		"restarts_attempted": float64(attempted),
		"restarts_succeeded": float64(succeeded),
		"degradations":       float64(routine.Abandoned()),
		"max_gap_ms":         ms(maxGap),
		"p99_gap_ms":         ms(p99Gap),
		"final_count":        float64(final),
	}
	return out, nil
}
