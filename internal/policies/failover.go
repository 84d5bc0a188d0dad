package policies

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/metrics"
)

// StalenessDebounce is how many consecutive over-limit snapshot-age
// observations the staleness gate demands before it refreshes the
// active replica's checkpoint.
const StalenessDebounce = 2

// Failover is the §5.2 adaptation routine, rebuilt around operator-state
// checkpointing: it runs N replicas of the Trend Calculator in exclusive
// host pools, tracks which replica is active, and on a PE failure of the
// active replica promotes the backup whose latest snapshot is freshest.
//
// The paper promoted the replica with the longest uptime as a proxy for
// the fullest sliding windows. With durable snapshots that proxy is
// obsolete: a replica that restarted five seconds ago but restored from
// a fresh checkpoint holds full windows, while a long-lived replica that
// never snapshotted would come back empty from its next failure. The
// policy therefore ranks candidates by lastCheckpointAgeMs — the
// snapshot-age gauge every PE publishes — observed through an OnPEMetric
// subscription; replicas with no reported snapshot rank after every
// replica with one, and uptime survives only as the tie-break.
//
// Two guard compositions carry the cross-cutting logic. Promotion is
// wrapped in core.OncePerEpoch, so one incident taking down several PEs
// of the active replica (§4.2's shared failure epoch) promotes exactly
// once; before committing a promotion the routine issues CheckpointPE
// against the demoted replica's surviving PEs, so the loser's
// recoverable state is never older than this incident. Independently, a
// core.Threshold over the snapshot-age observation — debounced with
// core.Debounce against metric jitter — refreshes the active replica's
// checkpoint whenever its snapshot grows older than MaxSnapshotAge.
type Failover struct {
	// App names the registered application to replicate.
	App string
	// Replicas is the number of copies to run (paper: 3).
	Replicas int
	// SubmitParams produces per-replica submission parameters (e.g. a
	// distinct display collector per replica).
	SubmitParams func(replica int) map[string]string
	// StatusPath, when non-empty, receives the replica status file.
	StatusPath string
	// MaxSnapshotAge bounds how stale the active replica's latest
	// snapshot may grow before the staleness gate checkpoints it again;
	// 0 disables the gate (snapshot ages are still observed and ranked).
	MaxSnapshotAge time.Duration

	// restart is the routine that brings the failed PE back after the
	// promotion decision.
	restart Restart
	// gate is the composed snapshot-age handler, built once in Setup
	// (tests drive it directly with synthetic contexts).
	gate core.Handler[core.PEMetricContext]

	mu          sync.Mutex
	jobs        []ids.JobID
	birth       map[ids.JobID]time.Time // submit or last restart time
	ages        map[ids.JobID]map[ids.PEID]int64
	active      ids.JobID
	failovers   int
	restarts    int
	refreshes   int
	promotionTx uint64 // TxID of the event whose handler last promoted
}

// Name implements core.Routine.
func (p *Failover) Name() string { return "failover" }

// Setup configures exclusive host pools, submits the replicas, assigns
// initial active/backup status, and subscribes to PE failures and
// snapshot-age metrics of the application (§5.2's actuation description
// plus the checkpoint-aware health signal). Every setup failure —
// unknown application, rejected replica submission, duplicate scope
// key — propagates out of Service.Start.
func (p *Failover) Setup(sc *core.SetupContext) error {
	act := sc.Actions()
	if p.Replicas <= 0 {
		p.Replicas = 3
	}
	if err := act.MakeExclusiveHostPools(p.App); err != nil {
		return fmt.Errorf("failover: exclusive pools for %s: %w", p.App, err)
	}
	p.mu.Lock()
	p.birth = make(map[ids.JobID]time.Time)
	p.ages = make(map[ids.JobID]map[ids.PEID]int64)
	p.mu.Unlock()
	for i := 0; i < p.Replicas; i++ {
		var params map[string]string
		if p.SubmitParams != nil {
			params = p.SubmitParams(i)
		}
		job, err := act.SubmitApplication(p.App, params)
		if err != nil {
			return fmt.Errorf("failover: submit replica %d: %w", i, err)
		}
		p.mu.Lock()
		p.jobs = append(p.jobs, job)
		p.birth[job] = act.Clock().Now()
		p.mu.Unlock()
	}
	p.mu.Lock()
	p.active = p.jobs[0]
	p.mu.Unlock()
	p.writeStatus()
	promote := core.OncePerEpoch(
		func(ctx *core.PEFailureContext) uint64 { return ctx.Epoch },
		p.promoteFreshest)
	p.gate = p.stalenessGate()
	p.restart.Strict, p.restart.Restarted = true, p.noteRestart
	return sc.Subscribe(
		core.OnPEFailure(
			core.NewPEFailureScope("replicaFailures").AddApplicationFilter(p.App),
			func(ctx *core.PEFailureContext, act *core.Actions) error {
				if err := promote(ctx, act); err != nil && !errors.Is(err, core.ErrSkipped) {
					return err
				}
				return p.restart.OnPEFailure(ctx, act)
			}),
		core.OnPEMetric(
			core.NewPEMetricScope("snapshotAge").
				AddApplicationFilter(p.App).
				AddPEMetric(metrics.PECheckpointAgeMs),
			p.gate))
}

// stalenessGate builds the snapshot-age handler: every delivery folds
// the observation into the per-replica staleness table, and — when
// MaxSnapshotAge is set — a guard composition re-checkpoints an active
// PE whose snapshot stays stale. The Threshold passes every anchored
// observation of the active replica (limit -1: any age above "never
// snapshotted"), so the per-PE Debounce inside sees under-limit
// deliveries too — its holds predicate checks the MaxSnapshotAge
// breach, a healthy observation resets the streak, and only
// StalenessDebounce consecutive breaching observations of the same PE
// fire the refresh. One Debounce instance per PE keeps two PEs'
// interleaved samples from advancing (or resetting) each other's
// streak.
func (p *Failover) stalenessGate() core.Handler[core.PEMetricContext] {
	if p.MaxSnapshotAge <= 0 {
		return func(ctx *core.PEMetricContext, _ *core.Actions) error {
			p.observeSnapshotAge(ctx)
			return core.ErrSkipped
		}
	}
	limitMs := float64(p.MaxSnapshotAge.Milliseconds())
	var mu sync.Mutex
	perPE := make(map[ids.PEID]core.Handler[core.PEMetricContext])
	debounced := func(ctx *core.PEMetricContext, act *core.Actions) error {
		mu.Lock()
		h := perPE[ctx.PE]
		if h == nil {
			h = core.Debounce(StalenessDebounce,
				func(ctx *core.PEMetricContext) bool { return float64(ctx.Value) > limitMs },
				p.refreshActiveSnapshot)
			perPE[ctx.PE] = h
		}
		mu.Unlock()
		return h(ctx, act)
	}
	return core.Threshold(
		func(ctx *core.PEMetricContext) (float64, bool) {
			age, activeReplica := p.observeSnapshotAge(ctx)
			return float64(age), activeReplica
		},
		-1, // strictly above -1 = the PE has anchored its state
		debounced)
}

// observeSnapshotAge records one lastCheckpointAgeMs observation and
// reports it together with whether it concerns the active replica. A
// negative value means the PE has no state anchor; its entry is dropped
// so the replica ranks as unknown rather than on stale data.
func (p *Failover) observeSnapshotAge(ctx *core.PEMetricContext) (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.ages[ctx.Job]
	if m == nil {
		m = make(map[ids.PEID]int64)
		p.ages[ctx.Job] = m
	}
	if ctx.Value >= 0 {
		m[ctx.PE] = ctx.Value
	} else {
		delete(m, ctx.PE)
	}
	return ctx.Value, ctx.Job == p.active
}

// refreshActiveSnapshot is the staleness gate's actuation: checkpoint
// the breaching PE of the active replica so a failover never has to
// fall back on state older than MaxSnapshotAge plus the debounce.
func (p *Failover) refreshActiveSnapshot(ctx *core.PEMetricContext, act *core.Actions) error {
	if err := act.CheckpointPE(ctx.PE); err != nil {
		return fmt.Errorf("failover: refresh snapshot of %s: %w", ctx.PE, err)
	}
	p.mu.Lock()
	p.refreshes++
	p.mu.Unlock()
	return nil
}

// promoteFreshest switches the active replica to the healthy backup with
// the freshest snapshot when the failed PE belongs to the active one;
// failures of backups skip, leaving the incident's epoch open in the
// OncePerEpoch guard for a possibly following active-replica failure.
// Replicas whose snapshot age has never been observed rank after every
// replica with a known age; ties — including the no-data-at-all case,
// e.g. a platform without a checkpoint store — fall back to the paper's
// longest-uptime order.
func (p *Failover) promoteFreshest(ctx *core.PEFailureContext, act *core.Actions) error {
	p.mu.Lock()
	if ctx.Job != p.active {
		p.mu.Unlock()
		return core.ErrSkipped
	}
	p.mu.Unlock()

	// Before the risky promotion, snapshot the demoted replica's
	// surviving PEs: whatever state they still hold becomes durable now,
	// so when this replica rejoins as a backup its recoverable state is
	// never older than this incident. Best-effort — every attempt is
	// journalled by the service, and a refused checkpoint (no store,
	// racing crash) must not block the availability actuation.
	if g, ok := act.Graph(ctx.Job); ok {
		for _, peID := range g.PEIDs() {
			if peID == ctx.PE {
				continue
			}
			if info, ok := g.PE(peID); !ok || info.State != "running" {
				continue
			}
			_ = act.CheckpointPE(peID) //orcalint:ignore actuationcheck best-effort freshness snapshot of the survivors; failover proceeds on the last checkpoint either way
		}
	}

	p.mu.Lock()
	if ctx.Job != p.active { // cannot change: delivery is single-threaded
		p.mu.Unlock()
		return core.ErrSkipped
	}
	best := ids.InvalidJob
	var bestAge int64
	var bestKnown bool
	var bestBirth time.Time
	for _, j := range p.jobs {
		if j == ctx.Job {
			continue
		}
		age, known := p.stalenessLocked(j)
		better := false
		switch {
		case best == ids.InvalidJob:
			better = true
		case known != bestKnown:
			better = known
		case known && age != bestAge:
			better = age < bestAge
		default:
			better = p.birth[j].Before(bestBirth)
		}
		if better {
			best, bestAge, bestKnown, bestBirth = j, age, known, p.birth[j]
		}
	}
	if best == ids.InvalidJob {
		p.mu.Unlock()
		return core.ErrSkipped
	}
	p.active = best
	p.failovers++
	p.promotionTx = ctx.TxID
	p.mu.Unlock()
	p.writeStatus()
	return nil
}

// stalenessLocked reports a replica's snapshot staleness: the maximum
// observed age across its PEs (a replica is only as recoverable as its
// stalest snapshot), ok=false when none of its PEs has reported one.
func (p *Failover) stalenessLocked(job ids.JobID) (int64, bool) {
	var worst int64
	known := false
	for _, age := range p.ages[job] {
		if !known || age > worst {
			worst, known = age, true
		}
	}
	return worst, known
}

// noteRestart is the Restart routine's success hook; with a checkpoint
// store the fresh container restored the PE's latest snapshot, so the
// replica rejoins with its windows intact even though its uptime
// resets. The PE's recorded snapshot age is dropped until the restarted
// container reports again.
func (p *Failover) noteRestart(ctx *core.PEFailureContext) {
	p.mu.Lock()
	if m := p.ages[ctx.Job]; m != nil {
		delete(m, ctx.PE)
	}
	p.birth[ctx.Job] = ctx.At
	p.restarts++
	p.mu.Unlock()
}

// writeStatus renders the replica table to StatusPath (if configured),
// the file the paper's GUI polls for the "active" highlight.
func (p *Failover) writeStatus() {
	if p.StatusPath == "" {
		return
	}
	p.mu.Lock()
	var b strings.Builder
	for i, j := range p.jobs {
		status := "backup"
		if j == p.active {
			status = "active"
		}
		fmt.Fprintf(&b, "replica %d (%s): %s\n", i, j, status)
	}
	p.mu.Unlock()
	_ = os.WriteFile(p.StatusPath, []byte(b.String()), 0o644)
}

// Active returns the currently active replica's job id.
func (p *Failover) Active() ids.JobID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Jobs returns the replica job ids in submission order.
func (p *Failover) Jobs() []ids.JobID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ids.JobID(nil), p.jobs...)
}

// ReplicaIndex maps a job id back to its replica index, or -1.
func (p *Failover) ReplicaIndex(job ids.JobID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, j := range p.jobs {
		if j == job {
			return i
		}
	}
	return -1
}

// Failovers returns how many active-replica promotions happened.
func (p *Failover) Failovers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failovers
}

// Restarts returns how many failed PEs the policy restarted.
func (p *Failover) Restarts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restarts
}

// LastPromotionTx returns the delivery transaction id of the failure
// event whose handling last promoted a replica (0 before any
// promotion). Journal entries carrying this TxID are the actuations
// of that handling — in particular the pre-promotion CheckpointPE
// calls against the demoted replica.
func (p *Failover) LastPromotionTx() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.promotionTx
}

// SnapshotRefreshes returns how many times the staleness gate
// re-checkpointed the active replica.
func (p *Failover) SnapshotRefreshes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refreshes
}

// ReplicaStaleness reports a replica's observed snapshot staleness; ok
// is false while none of its PEs has reported a snapshot age.
func (p *Failover) ReplicaStaleness(job ids.JobID) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ms, ok := p.stalenessLocked(job)
	return time.Duration(ms) * time.Millisecond, ok
}
