package exp

import (
	"fmt"
	"sync/atomic"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/metrics"
	"streamorca/internal/ops"
	"streamorca/internal/policies"
	"streamorca/internal/tuple"
)

// aggSchema is what an Aggregate emits: the window's mean and fill.
var aggSchema = tuple.MustSchema(
	tuple.Attribute{Name: "avg", Type: tuple.Float},
	tuple.Attribute{Name: "count", Type: tuple.Int},
)

// aggPipeline builds Beacon -> Aggregate -> CollectSink, one PE each:
// an unbounded tick source feeding a window that never expires, so the
// sink's "count" attribute is the aggregation PE's state size. The
// recovery and chaos scenarios kill and restart its PEs.
func aggPipeline(name, collID string, tick time.Duration) (*adl.Application, error) {
	tickS := tuple.MustSchema(
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "price", Type: tuple.Float},
	)
	b := compiler.NewApp(name)
	src := b.AddOperator("src", ops.KindBeacon).Out(tickS).
		Param("count", "0").Param("period", tick.String())
	agg := b.AddOperator("agg", ops.KindAggregate).In(tickS).Out(aggSchema).
		Param("window", "10m").Param("valueAttr", "price")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(aggSchema).Param("collectorId", collID)
	b.Connect(src, 0, agg, 0)
	b.Connect(agg, 0, sink, 0)
	return b.Build(compiler.Options{Fusion: compiler.FuseNone})
}

// recovery is the stateful-restart scenario: a checkpointing platform
// runs the aggregation pipeline, the scenario snapshots the aggregation
// PE, a fault kills it, and the Restart routine brings it back with
// restore. The run fails unless the recovered window resumes past its
// checkpointed fill instead of restarting empty — the stateful
// counterpart of the failover scenario's Figure 9 gap.
func recovery(p Params) (*Outcome, error) {
	// warm is the window fill to reach before the checkpoint.
	const warm = 100
	budget := p.budget(30 * time.Second)
	collID := uniq("recovery")
	coll := ops.Collector(collID)
	app, err := aggPipeline("RecoverySmoke", collID, stretch(time.Millisecond, 4))
	if err != nil {
		return nil, err
	}
	// The routine quiesces the sink before restarting, so every output
	// after preMax is stored comes from the restored container.
	var preMax atomic.Int64
	var restarted atomic.Bool
	routine := &policies.Restart{
		App: app.Name, Submit: true, Strict: true,
		Before: func(*core.PEFailureContext) {
			stable := coll.Len()
			for i := 0; i < 50; i++ {
				time.Sleep(time.Millisecond)
				if n := coll.Len(); n != stable {
					stable, i = n, 0
				}
			}
			preMax.Store(lastCount(coll)) // the window never expires, so the newest fill is the highest
		},
		Restarted: func(*core.PEFailureContext) { restarted.Store(true) },
	}
	r, err := boot(rigSpec{name: "recovery", hosts: 2, store: fsStore, dir: p.StoreDir, routine: routine, app: app})
	if err != nil {
		return nil, err
	}
	defer r.close()

	if !waitUntil(budget/2, time.Millisecond, func() bool { return lastCount(coll) >= warm }) {
		return nil, fmt.Errorf("recovery: window never warmed (count %d, want %d)", lastCount(coll), warm)
	}
	job, err := r.up(budget / 2)
	if err != nil {
		return nil, err
	}
	aggPE, err := r.pe(job, "agg")
	if err != nil {
		return nil, err
	}

	// Read the fill BEFORE capturing: the captured state can only be at
	// or past this observation, so "first post-restart > this" holds for
	// every restored run and no cold one.
	atCheckpoint := lastCount(coll)
	if err := r.svc.CheckpointPE(aggPE); err != nil {
		return nil, fmt.Errorf("recovery: checkpoint: %w", err)
	}
	if err := r.svc.KillPE(aggPE, "injected stateful-PE failure"); err != nil {
		return nil, err
	}
	if !waitUntil(budget/2, time.Millisecond, restarted.Load) {
		return nil, fmt.Errorf("recovery: routine never restarted the PE")
	}
	preLen := coll.Len()
	if !waitUntil(budget/2, time.Millisecond, func() bool { return coll.Len() > preLen }) {
		return nil, fmt.Errorf("recovery: no output after restart")
	}
	firstPost := coll.Tuples()[preLen].Int("count")
	restores := r.counter(aggPE, metrics.PEStateRestores)

	// A restored window resumes at atCheckpoint+1 or later; a cold one at
	// 1. Asserting against the checkpointed fill (not preMax) tolerates
	// the tuples that race between the capture and the kill — the dead PE
	// may already have emitted the very count the restored one re-emits —
	// without losing any discriminating power.
	if firstPost <= atCheckpoint {
		return nil, fmt.Errorf("recovery: window restarted cold: first post-restart count %d <= checkpointed %d",
			firstPost, atCheckpoint)
	}
	if restores < 1 {
		return nil, fmt.Errorf("recovery: restarted container reports no state restores")
	}
	out := &Outcome{OK: "recovery OK: restarted PE resumed from checkpointed state"}
	out.printf("checkpointed at count %d; pre-failure max %d; first post-restart count %d; restores %d",
		atCheckpoint, preMax.Load(), firstPost, restores)
	out.Metrics = map[string]float64{
		"count_at_checkpoint": float64(atCheckpoint),
		"max_pre_failure":     float64(preMax.Load()),
		"first_post_restart":  float64(firstPost),
		"restores":            float64(restores),
	}
	return out, nil
}
