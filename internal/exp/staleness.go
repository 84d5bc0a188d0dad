package exp

import (
	"fmt"
	"time"

	"streamorca/internal/metrics"
)

// stalenessFailover is the checkpoint-aware failover scenario: three
// Trend Calculator replicas under the §5.2 routine rebuilt around
// snapshot staleness. The two backups are driven to snapshots of very
// different ages — the older-uptime backup holds the stale one — the
// active replica's aggregation PE is killed, and the run fails unless
// the fresher-snapshot replica wins the promotion and serves from
// restored (not refilled) window state.
func stalenessFailover(p Params) (*Outcome, error) {
	// maxAge is the routine's staleness gate; skew separates the two
	// backups' checkpoint times.
	var (
		maxAge = stretch(100*time.Millisecond, 4)
		skew   = stretch(250*time.Millisecond, 4)
		budget = p.budget(30 * time.Second)
	)
	t, err := bootTrend(rigSpec{name: "staleness-failover", store: fsStore, dir: p.StoreDir},
		11, maxAge, budget)
	if err != nil {
		return nil, err
	}
	defer t.close()
	policy, svc, jobs := t.policy, t.svc, t.jobs
	fail := func(format string, args ...any) (*Outcome, error) {
		return nil, fmt.Errorf("staleness-failover: "+format, args...)
	}

	activeAgg, backup1Agg, backup2Agg := t.agg[0], t.agg[1], t.agg[2]

	// Part 1 — the staleness gate. Anchor the active replica's snapshot
	// once, let it age past maxAge, and deliver pull rounds until the
	// Threshold+Debounce composition re-checkpoints it.
	if err := svc.CheckpointPE(activeAgg); err != nil {
		return fail("seed active snapshot: %w", err)
	}
	time.Sleep(maxAge + 2*trendTick)
	if !waitUntil(budget/3, 5*trendTick, func() bool {
		t.pull()
		return policy.SnapshotRefreshes() > 0
	}) {
		return fail("gate never refreshed the active snapshot")
	}
	refreshes := policy.SnapshotRefreshes()

	// Part 2 — skewed backup snapshots. Backup 1 checkpoints first and
	// ages; backup 2 then checkpoints, crashes, and restores, ending up
	// with the fresh snapshot despite the younger uptime.
	if err := svc.CheckpointPE(backup1Agg); err != nil {
		return fail("checkpoint backup 1: %w", err)
	}
	time.Sleep(skew)
	atCheckpoint := t.lastCount(2)
	if err := svc.CheckpointPE(backup2Agg); err != nil {
		return fail("checkpoint backup 2: %w", err)
	}
	postKill := t.coll(2).Len()
	if err := svc.KillPE(backup2Agg, "injected backup failure"); err != nil {
		return nil, err
	}
	if !waitUntil(budget/3, time.Millisecond, func() bool { return policy.Restarts() >= 1 }) {
		return fail("backup never restarted")
	}
	if !waitUntil(budget/3, time.Millisecond, func() bool { return t.coll(2).Len() >= postKill+5 }) {
		return fail("backup never resumed output")
	}
	// Restored-not-refilled: every post-restart window fill stays near
	// the checkpointed fill; a cold refill would climb from 1.
	minPostRestore := int64(-1)
	for _, tp := range t.coll(2).Tuples()[postKill:] {
		if c := tp.Int("count"); minPostRestore < 0 || c < minPostRestore {
			minPostRestore = c
		}
	}
	if minPostRestore*2 < atCheckpoint {
		return fail("window refilled cold after restore: min post-restore %d vs checkpointed %d",
			minPostRestore, atCheckpoint)
	}

	// One pull round feeds the promotion ranking both backups' ages.
	t.pull()
	if !waitUntil(budget/3, time.Millisecond, func() bool {
		_, ok1 := policy.ReplicaStaleness(jobs[1])
		_, ok2 := policy.ReplicaStaleness(jobs[2])
		return ok1 && ok2
	}) {
		return fail("backup snapshot ages never observed")
	}
	stale, _ := policy.ReplicaStaleness(jobs[1])
	fresh, _ := policy.ReplicaStaleness(jobs[2])
	if stale <= fresh {
		return fail("staleness gap inverted (%v vs %v)", stale, fresh)
	}

	// Part 3 — the failover. Kill the active replica's aggregation PE:
	// the routine must checkpoint the demoted replica's surviving PEs and
	// promote the fresher-snapshot backup, skipping the stale one even
	// though it has the longer uptime.
	if err := svc.KillPE(activeAgg, "injected failure of active replica"); err != nil {
		return nil, err
	}
	if !waitUntil(budget/3, 100*time.Microsecond, func() bool { return policy.Failovers() >= 1 }) {
		return fail("failover never happened")
	}
	promoted := policy.ReplicaIndex(policy.Active())
	if promoted != 2 {
		return fail("promoted replica %d, want 2 (freshest snapshot; stale replica 1 must be skipped)", promoted)
	}
	// Only actuations journalled under the failure event's transaction
	// count: a staleness-gate refresh delivered around the same moment
	// carries a metric event's TxID and must not satisfy this check.
	prePromotion := 0
	for _, rec := range svc.ActuationJournal() {
		if rec.Action == "CheckpointPE" && rec.TxID == policy.LastPromotionTx() && rec.Err == "" {
			prePromotion++
		}
	}
	if prePromotion == 0 {
		return fail("no pre-promotion CheckpointPE in the actuation journal")
	}
	restores := t.counter(backup2Agg, metrics.PEStateRestores)
	if restores < 1 {
		return fail("promoted replica reports no state restores")
	}

	out := &Outcome{OK: "staleness-failover OK: fresher-snapshot replica promoted and resumed from restore"}
	out.printf("gate refreshes %d; backup snapshot ages %dms (stale) vs %dms (fresh); promoted replica %d; pre-promotion checkpoints %d; restores %d",
		refreshes, stale.Milliseconds(), fresh.Milliseconds(), promoted, prePromotion, restores)
	out.printf("window fill: checkpointed %d, min post-restore %d (no refill)", atCheckpoint, minPostRestore)
	out.Metrics = map[string]float64{
		"snapshot_refreshes":        float64(refreshes),
		"stale_age_ms":              ms(stale),
		"fresh_age_ms":              ms(fresh),
		"promoted_replica":          float64(promoted),
		"pre_promotion_checkpoints": float64(prePromotion),
		"promoted_state_restores":   float64(restores),
		"count_at_checkpoint":       float64(atCheckpoint),
		"min_post_restore":          float64(minPostRestore),
	}
	return out, nil
}
