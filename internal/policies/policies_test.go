package policies

import (
	"os"
	"strings"
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/apps"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/extjob"
	"streamorca/internal/ids"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
	"streamorca/internal/wait"
)

// --- ModelRecompute unit behaviour (driven with synthetic contexts) ---

// tinyApp builds a minimal registrable application so the routine's
// Setup-time submission succeeds; the tests then drive the guarded
// handler directly with synthetic metric contexts.
func tinyApp(t *testing.T, name string) *adl.Application {
	t.Helper()
	s := tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})
	b := compiler.NewApp(name)
	src := b.AddOperator("src", ops.KindBeacon).Out(s).Param("count", "1")
	sink := b.AddOperator("sink", ops.KindCountSink).In(s)
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseAll})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func recomputeFixture(t *testing.T) (*ModelRecompute, *core.Service, *vclock.Manual) {
	t.Helper()
	inst := platformtest.Boot(t, platform.Options{})
	clock := vclock.NewManual(time.Unix(0, 0))
	store := extjob.NewStore()
	for i := 0; i < 20; i++ {
		store.Append("I hate my phone because of the antenna")
	}
	p := &ModelRecompute{
		App: "X", MatcherOp: "m", Model: extjob.NewModel("flash"), Store: store,
		Threshold: 1.0, Suppression: 10 * time.Minute,
		Runner: extjob.NewRunner(clock, time.Minute), MinSupport: 5,
	}
	svc, err := core.NewRoutineService(core.Config{
		Name: "t", SAM: inst.SAM, SRM: inst.SRM, Clock: clock, PullInterval: time.Hour,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterApplication(tinyApp(t, "X")); err != nil {
		t.Fatal(err)
	}
	// Start runs the routine's Setup, building the guarded handler the
	// tests below drive directly.
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	return p, svc, clock
}

func metricCtx(name string, value int64, epoch uint64) *core.OperatorMetricContext {
	return &core.OperatorMetricContext{
		Job: 1, App: "X", InstanceName: "m", Metric: name,
		Custom: true, Value: value, Epoch: epoch,
	}
}

// drive feeds one synthetic metric event through the policy's composed
// guard chain, the way the dispatch loop would.
func drive(p *ModelRecompute, svc *core.Service, ctx *core.OperatorMetricContext) {
	_ = p.handle(ctx, svc.Actions())
}

func TestModelRecomputeWaitsForMatchingEpochs(t *testing.T) {
	p, svc, _ := recomputeFixture(t)
	// Known from epoch 1, unknown from epoch 2: no evaluation yet.
	drive(p, svc, metricCtx("recentKnownCauses", 10, 1))
	drive(p, svc, metricCtx("recentUnknownCauses", 50, 2))
	if len(p.Series()) != 0 {
		t.Fatalf("evaluated across epochs: %v", p.Series())
	}
	// Matching epochs: evaluated and triggered.
	drive(p, svc, metricCtx("recentKnownCauses", 10, 2))
	if got := p.Series(); len(got) != 1 || got[0].Ratio != 5.0 {
		t.Fatalf("series = %v", got)
	}
	if p.Triggers() != 1 {
		t.Fatalf("triggers = %d", p.Triggers())
	}
}

func TestModelRecomputeBelowThresholdNoTrigger(t *testing.T) {
	p, svc, _ := recomputeFixture(t)
	drive(p, svc, metricCtx("recentKnownCauses", 100, 1))
	drive(p, svc, metricCtx("recentUnknownCauses", 10, 1))
	if p.Triggers() != 0 {
		t.Fatal("triggered below threshold")
	}
	if len(p.Series()) != 1 {
		t.Fatal("series not recorded")
	}
}

func TestModelRecomputeSuppression(t *testing.T) {
	p, svc, clock := recomputeFixture(t)
	drive(p, svc, metricCtx("recentKnownCauses", 1, 1))
	drive(p, svc, metricCtx("recentUnknownCauses", 50, 1))
	if p.Triggers() != 1 {
		t.Fatalf("triggers = %d", p.Triggers())
	}
	// Let the job finish so Runner.Running() is false again. The
	// service's metric pull loop is already a clock waiter, so wait for
	// the runner's sleep as the second one before advancing.
	clock.BlockUntilWaiters(2)
	clock.Advance(time.Minute)
	wait.For(t, "job completion", func() bool { return !p.Runner.Running() })
	// Still crossing within the suppression window: no second job.
	drive(p, svc, metricCtx("recentKnownCauses", 1, 2))
	drive(p, svc, metricCtx("recentUnknownCauses", 60, 2))
	if p.Triggers() != 1 {
		t.Fatalf("re-triggered within suppression: %d", p.Triggers())
	}
	// After the suppression interval elapses, it may trigger again.
	clock.Advance(10 * time.Minute)
	drive(p, svc, metricCtx("recentKnownCauses", 1, 3))
	drive(p, svc, metricCtx("recentUnknownCauses", 60, 3))
	if p.Triggers() != 2 {
		t.Fatalf("triggers after suppression = %d", p.Triggers())
	}
}

func TestModelRecomputeIgnoresOtherMetrics(t *testing.T) {
	p, svc, _ := recomputeFixture(t)
	drive(p, svc, metricCtx("somethingElse", 9, 1))
	if len(p.Series()) != 0 || p.Triggers() != 0 {
		t.Fatal("foreign metric processed")
	}
}

// TestModelRecomputeSetupErrorSurfaces pins the satellite bugfix: a
// routine whose application is missing fails Service.Start with an
// error instead of panicking inside an event handler.
func TestModelRecomputeSetupErrorSurfaces(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	p := &ModelRecompute{App: "NotRegistered", MatcherOp: "m", Threshold: 1}
	svc, err := core.NewRoutineService(core.Config{
		Name: "t", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	err = svc.Start()
	if err == nil {
		t.Fatal("Start succeeded with an unregistered application")
	}
	if !strings.Contains(err.Error(), "modelRecompute") {
		t.Fatalf("setup error lacks routine context: %v", err)
	}
}

// --- Failover end-to-end behaviour ---

func failoverFixture(t *testing.T) (*Failover, *core.Service, *platform.Instance) {
	t.Helper()
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3", "h4")})
	app, err := apps.TrendApp(apps.TrendConfig{
		Name: "TC", Symbols: "IBM", Seed: 1, Count: 0,
		Period: 500 * time.Microsecond, Window: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &Failover{
		App: "TC", Replicas: 3,
		SubmitParams: func(i int) map[string]string {
			return map[string]string{"collector": apps.ReplicaCollector("pol-fo", i)}
		},
	}
	svc, err := core.NewRoutineService(core.Config{
		Name: "foOrca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	wait.For(t, "replicas", func() bool { return len(p.Jobs()) == 3 })
	return p, svc, inst
}

func TestFailoverActiveFailurePromotesOldestBackup(t *testing.T) {
	p, svc, _ := failoverFixture(t)
	jobs := p.Jobs()
	if p.Active() != jobs[0] {
		t.Fatalf("initial active = %v", p.Active())
	}
	pe, ok := svc.PEOfOperator(jobs[0], apps.TrendAggregateOp)
	if !ok {
		t.Fatal("no aggregate PE")
	}
	if err := svc.KillPE(pe, "test"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "failover", func() bool { return p.Failovers() == 1 })
	if p.Active() != jobs[1] {
		t.Fatalf("promoted %v, want oldest backup %v", p.Active(), jobs[1])
	}
	wait.For(t, "restart", func() bool { return p.Restarts() == 1 })
}

func TestFailoverBackupFailureKeepsActive(t *testing.T) {
	p, svc, _ := failoverFixture(t)
	jobs := p.Jobs()
	pe, _ := svc.PEOfOperator(jobs[2], apps.TrendAggregateOp)
	if err := svc.KillPE(pe, "test"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "restart", func() bool { return p.Restarts() == 1 })
	if p.Failovers() != 0 || p.Active() != jobs[0] {
		t.Fatalf("backup failure changed active: failovers=%d active=%v", p.Failovers(), p.Active())
	}
}

func TestFailoverRestartedReplicaIsYoungest(t *testing.T) {
	p, svc, _ := failoverFixture(t)
	jobs := p.Jobs()
	// Kill replica 0 (active): replica 1 promoted; replica 0 restarts and
	// becomes youngest. Kill replica 1 next: replica 2 (not the freshly
	// restarted 0) must be promoted.
	pe0, _ := svc.PEOfOperator(jobs[0], apps.TrendAggregateOp)
	if err := svc.KillPE(pe0, "t1"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "first failover", func() bool { return p.Failovers() == 1 && p.Restarts() == 1 })
	pe1, _ := svc.PEOfOperator(jobs[1], apps.TrendAggregateOp)
	if err := svc.KillPE(pe1, "t2"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "second failover", func() bool { return p.Failovers() == 2 })
	if p.Active() != jobs[2] {
		t.Fatalf("promoted %v (replica %d), want oldest healthy %v",
			p.Active(), p.ReplicaIndex(p.Active()), jobs[2])
	}
}

// failoverCkptFixture is failoverFixture on a checkpointing platform,
// so snapshot ages flow and CheckpointPE actuations succeed.
func failoverCkptFixture(t *testing.T, maxAge time.Duration) (*Failover, *core.Service, *platform.Instance) {
	t.Helper()
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3", "h4"), Checkpoint: ckpt.NewMemStore()})
	app, err := apps.TrendApp(apps.TrendConfig{
		Name: "TC", Symbols: "IBM", Seed: 1, Count: 0,
		Period: 500 * time.Microsecond, Window: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &Failover{
		App: "TC", Replicas: 3, MaxSnapshotAge: maxAge,
		SubmitParams: func(i int) map[string]string {
			return map[string]string{"collector": apps.ReplicaCollector("pol-cf", i)}
		},
	}
	svc, err := core.NewRoutineService(core.Config{
		Name: "cfOrca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Stop)
	wait.For(t, "replicas", func() bool { return len(p.Jobs()) == 3 })
	return p, svc, inst
}

// pullAges flushes host metrics and runs one orchestrator pull round,
// then waits until the policy has observed a snapshot age for job (or
// just drains the round when job is 0).
func pullAges(t *testing.T, p *Failover, svc *core.Service, inst *platform.Instance, job ids.JobID) {
	t.Helper()
	inst.FlushMetrics()
	svc.PullMetricsNow()
	if job == ids.InvalidJob {
		return
	}
	wait.For(t, "snapshot age observed", func() bool {
		_, ok := p.ReplicaStaleness(job)
		return ok
	})
}

// TestFailoverPromotesFreshestSnapshot: the youngest backup wins the
// promotion because its snapshot is the freshest — the longest-uptime
// order would have picked the older, never-snapshotted backup.
func TestFailoverPromotesFreshestSnapshot(t *testing.T) {
	p, svc, inst := failoverCkptFixture(t, 0)
	jobs := p.Jobs()
	aggPE := func(j ids.JobID) ids.PEID {
		pe, ok := svc.PEOfOperator(j, apps.TrendAggregateOp)
		if !ok {
			t.Fatalf("replica %s has no aggregation PE", j)
		}
		return pe
	}
	// Only the youngest backup (replica 2) snapshots its state.
	if err := svc.CheckpointPE(aggPE(jobs[2])); err != nil {
		t.Fatal(err)
	}
	pullAges(t, p, svc, inst, jobs[2])
	if _, ok := p.ReplicaStaleness(jobs[1]); ok {
		t.Fatal("unsnapshotted replica reports staleness")
	}

	if err := svc.KillPE(aggPE(jobs[0]), "active fault"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "failover", func() bool { return p.Failovers() == 1 })
	if p.Active() != jobs[2] {
		t.Fatalf("promoted replica %d, want 2 (freshest snapshot)", p.ReplicaIndex(p.Active()))
	}

	// The demoted replica's surviving PEs were checkpointed before the
	// promotion, inside the failure event's transaction (gate refreshes
	// carry a different TxID and must not satisfy this).
	if p.LastPromotionTx() == 0 {
		t.Fatal("promotion recorded no transaction id")
	}
	var prePromotion int
	for _, rec := range svc.ActuationJournal() {
		if rec.Action == "CheckpointPE" && rec.TxID == p.LastPromotionTx() && rec.Err == "" {
			prePromotion++
		}
	}
	if prePromotion == 0 {
		t.Fatalf("no pre-promotion CheckpointPE in journal: %+v", svc.ActuationJournal())
	}
}

// TestFailoverStalenessGateRefreshesActive: with MaxSnapshotAge set, a
// sustained over-limit snapshot age on the active replica triggers a
// CheckpointPE refresh after the debounce — and only after it.
func TestFailoverStalenessGateRefreshesActive(t *testing.T) {
	p, svc, inst := failoverCkptFixture(t, time.Millisecond)
	jobs := p.Jobs()
	activeAgg, ok := svc.PEOfOperator(jobs[0], apps.TrendAggregateOp)
	if !ok {
		t.Fatal("no aggregation PE")
	}
	if err := svc.CheckpointPE(activeAgg); err != nil {
		t.Fatal(err)
	}
	// The age is wall-clock time since the capture, so only the clock
	// can take it past MaxSnapshotAge.
	time.Sleep(5 * time.Millisecond)
	pullAges(t, p, svc, inst, jobs[0])
	if got := p.SnapshotRefreshes(); got != 0 {
		t.Fatalf("refreshed after one breach (debounce %d): %d", StalenessDebounce, got)
	}
	// Nothing re-anchored the snapshot, so the second pull breaches too.
	pullAges(t, p, svc, inst, ids.InvalidJob)
	wait.For(t, "staleness refresh", func() bool { return p.SnapshotRefreshes() >= 1 })
}

// TestFailoverStalenessGateSemantics drives the composed gate handler
// directly with synthetic metric contexts (the way the dispatch loop
// would): consecutive breaches fire, an under-limit observation resets
// the streak, backup observations are ignored, and two PEs' streaks
// are independent.
func TestFailoverStalenessGateSemantics(t *testing.T) {
	p, svc, _ := failoverCkptFixture(t, time.Second) // limit 1000ms, debounce 2
	jobs := p.Jobs()
	activeAgg, ok := svc.PEOfOperator(jobs[0], apps.TrendAggregateOp)
	if !ok {
		t.Fatal("no aggregation PE")
	}
	ageCtx := func(job ids.JobID, pe ids.PEID, age int64) *core.PEMetricContext {
		return &core.PEMetricContext{
			Job: job, App: "TC", PE: pe, Metric: "lastCheckpointAgeMs", Value: age,
		}
	}
	drive := func(job ids.JobID, pe ids.PEID, age int64) {
		_ = p.gate(ageCtx(job, pe, age), svc.Actions())
	}

	// Backup breaches never count: the gate concerns the active replica.
	drive(jobs[1], activeAgg, 5000)
	drive(jobs[1], activeAgg, 5000)
	if got := p.SnapshotRefreshes(); got != 0 {
		t.Fatalf("backup observations fired the gate: %d", got)
	}
	// One breach, then a healthy observation: the streak resets, so two
	// more breaches are needed before the refresh fires.
	drive(jobs[0], activeAgg, 5000)
	drive(jobs[0], activeAgg, 10) // under limit: reset
	drive(jobs[0], activeAgg, 5000)
	if got := p.SnapshotRefreshes(); got != 0 {
		t.Fatalf("gate fired without consecutive breaches: %d", got)
	}
	drive(jobs[0], activeAgg, 5000)
	if got := p.SnapshotRefreshes(); got != 1 {
		t.Fatalf("two consecutive breaches did not fire: %d", got)
	}
	// Per-PE isolation: interleaved breaches of two PEs advance neither
	// streak to the firing point in fewer than 2 observations each, and
	// an unanchored (-1) observation never reaches the debounce.
	otherPE := activeAgg + 1000 // synthetic second PE of the active job
	drive(jobs[0], activeAgg, 5000)
	drive(jobs[0], otherPE, -1) // never anchored: filtered by the Threshold
	drive(jobs[0], otherPE, 5000)
	if got := p.SnapshotRefreshes(); got != 1 {
		t.Fatalf("interleaved PEs shared a streak: %d", got)
	}
}

func TestFailoverStatusFile(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3", "h4")})
	app, err := apps.TrendApp(apps.TrendConfig{
		Name: "TC", Symbols: "IBM", Seed: 1, Count: 0,
		Period: time.Millisecond, Window: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/status.txt"
	p := &Failover{
		App: "TC", Replicas: 3, StatusPath: path,
		SubmitParams: func(i int) map[string]string {
			return map[string]string{"collector": apps.ReplicaCollector("pol-sf", i)}
		},
	}
	svc, err := core.NewRoutineService(core.Config{
		Name: "sfOrca", SAM: inst.SAM, SRM: inst.SRM, PullInterval: time.Hour,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	wait.For(t, "status file", func() bool {
		data, err := os.ReadFile(path)
		return err == nil && strings.Contains(string(data), "replica 0") &&
			strings.Contains(string(data), "active")
	})
}

var _ = ids.InvalidJob
