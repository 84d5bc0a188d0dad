package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

// TestHostFailureRestartRelocatesPE: when a PE's host dies, RestartPE
// re-places the PE onto a surviving host of the pool and the stream graph
// reflects the new placement.
func TestHostFailureRestartRelocatesPE(t *testing.T) {
	h := rig(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2")})
	app := simpleApp(t, "Rel", "rel", "0")
	// Pin both PEs to h1 initially via an explicit pool listing both
	// hosts but ordered so h1 wins the first placements.
	app.HostPools = []adl.HostPool{{Name: "pool", Hosts: []string{"h1", "h2"}}}
	for i := range app.PEs {
		app.PEs[i].Pool = "pool"
	}
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	h.observe(t,
		NewPEFailureScope("pf").AddApplicationFilter("Rel"),
		NewHostFailureScope("hf"))
	h.start(t)
	job, err := h.svc.SubmitApplication("Rel", nil)
	if err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, h.inst, "rel", 3)
	g, _ := h.svc.Graph(job)

	// Find a PE on h1 (placement spreads, so at least one is there).
	var victim ids.PEID
	var victimHost string
	for _, pe := range g.PEIDs() {
		host, _ := g.HostOfPE(pe)
		if host == "h1" {
			victim, victimHost = pe, host
			break
		}
	}
	if victim == ids.InvalidPE {
		t.Fatalf("no PE on h1; placement: %v", g.PEIDs())
	}
	_ = victimHost

	if err := h.inst.Cluster.KillHost("h1"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "failure events", func() bool { return h.rec.countKind(KindPEFailure) >= 1 })

	// Restart: must land on h2, the only surviving host.
	if err := h.svc.RestartPE(victim); err != nil {
		t.Fatal(err)
	}
	host, ok := g.HostOfPE(victim)
	if !ok || host != "h2" {
		t.Fatalf("relocated host = %q, %v", host, ok)
	}
	info, _ := g.PE(victim)
	if info.State != "running" {
		t.Fatalf("state = %q", info.State)
	}
	// Traffic resumes once every crashed PE is restarted.
	for _, pe := range g.PEIDs() {
		if inf, _ := g.PE(pe); inf.State == "crashed" {
			if err := h.svc.RestartPE(pe); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := h.coll("rel").Len()
	platformtest.Delivered(t, h.inst, "rel", n+1)
}

// TestRestartUnderTraffic hammers restart while tuples flow to catch
// wiring races: the pipeline must keep making progress after each of
// several rapid restarts of the middle PE.
func TestRestartUnderTraffic(t *testing.T) {
	h := rig(t, platform.Options{})
	app := pipelineApp(t, "RUT", "rut")
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	h.start(t)
	job, err := h.svc.SubmitApplication("RUT", nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := h.svc.Graph(job)
	midPE, ok := g.PEOfOperator("mid")
	if !ok {
		t.Fatal("no mid PE")
	}
	platformtest.Delivered(t, h.inst, "rut", 6)
	for i := 0; i < 5; i++ {
		if err := h.svc.KillPE(midPE, "stress"); err != nil {
			t.Fatal(err)
		}
		wait.For(t, "crash observed", func() bool {
			info, _ := g.PE(midPE)
			return info.State == "crashed"
		})
		if err := h.svc.RestartPE(midPE); err != nil {
			t.Fatal(err)
		}
		n := h.coll("rut").Len()
		platformtest.Delivered(t, h.inst, "rut", n+1)
	}
}

// stalenessRouter is a minimal checkpoint-aware failover routine: it
// observes every replica's lastCheckpointAgeMs through an OnPEMetric
// subscription and, on a failure of the active replica, promotes the
// backup with the freshest snapshot (replicas without one rank last),
// deduplicated per failure epoch with OncePerEpoch. Failed PEs restart
// after the owning replica's collector quiesced, so the test can pin
// the first post-restart output tuple.
type stalenessRouter struct {
	app      string
	colls    map[ids.JobID]*ops.Collection
	jobs     []ids.JobID
	promoted chan ids.JobID
	restarts chan restartMark

	mu     sync.Mutex
	active ids.JobID
	ages   map[ids.JobID]map[ids.PEID]int64
}

type restartMark struct {
	pe       ids.PEID
	boundary int // collector length once the dead PE's output drained
}

func (p *stalenessRouter) Name() string { return "stalenessRouter" }

func (p *stalenessRouter) Setup(sc *SetupContext) error {
	p.ages = make(map[ids.JobID]map[ids.PEID]int64)
	promote := OncePerEpoch(
		func(ctx *PEFailureContext) uint64 { return ctx.Epoch },
		p.promoteFreshest)
	return sc.Subscribe(
		OnPEMetric(
			NewPEMetricScope("ages").AddApplicationFilter(p.app).
				AddPEMetric(metrics.PECheckpointAgeMs),
			func(ctx *PEMetricContext, act *Actions) error {
				p.mu.Lock()
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
				p.mu.Unlock()
				return nil
			}),
		OnPEFailure(
			NewPEFailureScope("fails").AddApplicationFilter(p.app),
			func(ctx *PEFailureContext, act *Actions) error {
				_ = promote(ctx, act) // ErrSkipped for backup failures
				return p.restartFailed(ctx, act)
			}))
}

// staleness reports a replica's worst observed snapshot age; unknown
// (no snapshot reported) ranks after every known age.
func (p *stalenessRouter) staleness(job ids.JobID) (int64, bool) {
	var worst int64
	known := false
	for _, age := range p.ages[job] {
		if !known || age > worst {
			worst, known = age, true
		}
	}
	return worst, known
}

func (p *stalenessRouter) promoteFreshest(ctx *PEFailureContext, act *Actions) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ctx.Job != p.active {
		return ErrSkipped
	}
	best := ids.InvalidJob
	var bestAge int64
	bestKnown := false
	for _, j := range p.jobs {
		if j == ctx.Job {
			continue
		}
		age, known := p.staleness(j)
		switch {
		case best == ids.InvalidJob && !known:
			best = j
		case known && (!bestKnown || age < bestAge):
			best, bestAge, bestKnown = j, age, true
		}
	}
	if best == ids.InvalidJob {
		return ErrSkipped
	}
	p.active = best
	p.promoted <- best
	return nil
}

func (p *stalenessRouter) restartFailed(ctx *PEFailureContext, act *Actions) error {
	// Drain the dead PE's in-flight output so everything past the
	// boundary comes from the restored container.
	stable, _ := quiet(p.colls[ctx.Job], 50*time.Millisecond)
	if err := act.RestartPE(ctx.PE); err != nil {
		return err
	}
	p.restarts <- restartMark{pe: ctx.PE, boundary: stable}
	return nil
}

// replicaAggApp builds Beacon -> Aggregate -> CollectSink across three
// PEs with a submission-time collector id, so several replicas of the
// same application write distinct collections.
func replicaAggApp(t *testing.T, name string) *adl.Application {
	t.Helper()
	tickS := tuple.MustSchema(
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "price", Type: tuple.Float},
	)
	outS := tuple.MustSchema(
		tuple.Attribute{Name: "avg", Type: tuple.Float},
		tuple.Attribute{Name: "count", Type: tuple.Int},
	)
	b := compiler.NewApp(name)
	src := b.AddOperator("src", ops.KindBeacon).Out(tickS).Param("count", "0")
	agg := b.AddOperator("agg", ops.KindAggregate).In(tickS).Out(outS).
		Param("window", "10m").Param("valueAttr", "price")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(outS).Param("collectorId", "{{coll}}")
	b.Connect(src, 0, agg, 0)
	b.Connect(agg, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestStalenessRankedFailover is the checkpoint-aware failover e2e: two
// backups hold snapshots of different ages, the active replica dies,
// and the routine promotes the replica with the fresher snapshot — the
// stale one is skipped even though it has the longer uptime — after
// that replica already proved it resumes from restore (its window
// continues past the checkpointed fill, and nStateRestores increments
// on the promoted PE).
func TestStalenessRankedFailover(t *testing.T) {
	h := rig(t, platform.Options{Checkpoint: ckpt.NewMemStore()})
	app := replicaAggApp(t, "SRF")
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	router := &stalenessRouter{
		app:      "SRF",
		colls:    make(map[ids.JobID]*ops.Collection),
		promoted: make(chan ids.JobID, 4),
		restarts: make(chan restartMark, 4),
	}
	// The routine shares the harness service with the recorder routine:
	// run its Setup against a hand-built context, as Compose would.
	if err := router.Setup(&SetupContext{svc: h.svc, routine: router.Name()}); err != nil {
		t.Fatal(err)
	}
	h.start(t)

	collID := func(i int) string { return fmt.Sprintf("srf-%d", i) }
	lastCount := func(coll *ops.Collection) int64 {
		tp, ok := coll.Last()
		if !ok {
			return 0
		}
		return tp.Int("count")
	}
	var jobs []ids.JobID
	for i := 0; i < 3; i++ {
		job, err := h.svc.SubmitApplication("SRF", map[string]string{"coll": collID(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
		router.colls[job] = h.coll(collID(i))
	}
	router.mu.Lock()
	router.jobs = append([]ids.JobID(nil), jobs...)
	router.active = jobs[0]
	router.mu.Unlock()

	aggPE := func(job ids.JobID) ids.PEID {
		pe, ok := h.svc.PEOfOperator(job, "agg")
		if !ok {
			t.Fatalf("job %s has no agg PE", job)
		}
		return pe
	}
	for _, j := range jobs {
		coll := router.colls[j]
		wait.For(t, "replica warm", func() bool { return lastCount(coll) >= 30 })
	}

	// Backup 1 snapshots first; ten virtual seconds later backup 2
	// snapshots, crashes, and restores — leaving backup 1 with the stale
	// snapshot and backup 2 with the fresh one plus a proven restore.
	if err := h.svc.CheckpointPE(aggPE(jobs[1])); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(10 * time.Second)
	countAtCkpt := lastCount(router.colls[jobs[2]])
	if err := h.svc.CheckpointPE(aggPE(jobs[2])); err != nil {
		t.Fatal(err)
	}
	if err := h.svc.KillPE(aggPE(jobs[2]), "backup fault"); err != nil {
		t.Fatal(err)
	}
	var mark restartMark
	wait.Within(t, "the backup PE's restart", func() { mark = <-router.restarts })
	coll2 := router.colls[jobs[2]]
	wait.For(t, "post-restore output", func() bool { return coll2.Len() > mark.boundary })
	if got := coll2.Tuples()[mark.boundary].Int("count"); got <= countAtCkpt {
		t.Fatalf("restored window refilled cold: first post-restart count %d <= checkpointed %d", got, countAtCkpt)
	}

	// One pull round delivers every replica's snapshot age.
	h.inst.FlushMetrics()
	h.svc.PullMetricsNow()
	wait.For(t, "ages observed", func() bool {
		router.mu.Lock()
		defer router.mu.Unlock()
		_, ok1 := router.staleness(jobs[1])
		_, ok2 := router.staleness(jobs[2])
		return ok1 && ok2
	})
	router.mu.Lock()
	staleAge, _ := router.staleness(jobs[1])
	freshAge, _ := router.staleness(jobs[2])
	router.mu.Unlock()
	if staleAge <= freshAge {
		t.Fatalf("staleness inverted: backup1 %dms, backup2 %dms", staleAge, freshAge)
	}

	// Active replica dies: the fresh-snapshot backup must win.
	if err := h.svc.KillPE(aggPE(jobs[0]), "active fault"); err != nil {
		t.Fatal(err)
	}
	select {
	case winner := <-router.promoted:
		if winner != jobs[2] {
			t.Fatalf("promoted %s, want fresh-snapshot replica %s (stale %s must be skipped)",
				winner, jobs[2], jobs[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no promotion after active failure")
	}
	c, ok := h.inst.Cluster.PEContainer(aggPE(jobs[2]))
	if !ok {
		t.Fatal("promoted container missing")
	}
	if got := c.PEMetrics().Counter(metrics.PEStateRestores).Value(); got < 1 {
		t.Fatalf("promoted PE nStateRestores = %d, want >= 1", got)
	}
	wait.Within(t, "the active PE's restart", func() { <-router.restarts }) // failed active restarted too
}

// TestPlatformRestartIsLiveInGraph: SAM restarts a PE on its own (the ADL
// Restart flag) and only then notifies the orchestrator. The stream
// graph's physical view must say what SAM says, not what the late
// failure notification said.
func TestPlatformRestartIsLiveInGraph(t *testing.T) {
	h := rig(t, platform.Options{})
	app := simpleApp(t, "Live", "live", "0")
	for i := range app.PEs {
		app.PEs[i].Restart = true
	}
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	h.observe(t, NewPEFailureScope("pf"))
	h.start(t)
	job, err := h.svc.SubmitApplication("Live", nil)
	if err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, h.inst, "live", 3)
	sinkPE, ok := h.svc.PEOfOperator(job, "sink")
	if !ok {
		t.Fatal("no sink PE")
	}
	if err := h.inst.SAM.KillPE(sinkPE, "fault"); err != nil {
		t.Fatal(err)
	}
	// SAM notifies after its restart: once the event is delivered, the
	// notification can no longer race the check below.
	wait.For(t, "failure delivered", func() bool { return h.rec.countKind(KindPEFailure) >= 1 })
	var want sam.PERuntimeInfo
	wait.For(t, "SAM restarted the PE", func() bool {
		info, _ := h.inst.SAM.Job(job)
		for _, p := range info.PEs {
			if p.ID == sinkPE {
				want = p
			}
		}
		return want.State == "running" && want.Restarts >= 1
	})
	g, _ := h.svc.Graph(job)
	got, _ := g.PE(sinkPE)
	host, _ := g.HostOfPE(sinkPE)
	if got.State != want.State || host != want.Host {
		t.Fatalf("graph says %q on %q, SAM says %q on %q", got.State, host, want.State, want.Host)
	}
}

// TestFailedResizeKeepsRegionManaged: a resize whose deploy fails has
// still swapped in the resized ADL at SAM, so the replica it added is a
// PE of the job. The orchestrator must manage it: RestartPE may fail on
// its merits, never with ErrUnmanagedJob.
func TestFailedResizeKeepsRegionManaged(t *testing.T) {
	h := rig(t, platform.Options{}) // one host: with it down, no deploy can place
	s := tuple.MustSchema(
		tuple.Attribute{Name: "user", Type: tuple.String},
		tuple.Attribute{Name: "score", Type: tuple.Float},
	)
	b := compiler.NewApp("Rsz")
	src := b.AddOperator("src", ops.KindBeacon).Param("period", "1h").Out(s)
	agg := b.AddOperator("agg", ops.KindAggregate).
		Param("window", "1h").Param("groupBy", "user").Param("valueAttr", "score").
		In(s).Out(s).Parallel(1)
	sink := b.AddOperator("sink", ops.KindCountSink).In(s)
	b.Connect(src, 0, agg, 0)
	b.Connect(agg, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.svc.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	h.start(t)
	job, err := h.svc.SubmitApplication("Rsz", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Handlers read the graph, lock-free, while the resize swaps it.
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			g, _ := h.svc.Graph(job)
			for _, pe := range g.PEIDs() {
				g.PE(pe)
				h.svc.HostOfPE(pe)
			}
		}
	}()
	if err := h.inst.Cluster.KillHost("h1"); err != nil {
		t.Fatal(err)
	}
	err = h.svc.ResizeRegion(job, "agg", 2)
	close(stop)
	<-readerDone
	if err == nil {
		t.Fatal("resize deployed with every host down")
	}
	if err := h.inst.Cluster.ReviveHost("h1"); err != nil {
		t.Fatal(err)
	}
	resized, ok := h.inst.SAM.JobADL(job)
	if !ok || resized.Region("agg").Width != 2 {
		t.Fatal("SAM did not keep the resized ADL")
	}
	idx := resized.PEOfOperator(resized.Region("agg").Replicas[1])
	added := ids.InvalidPE
	info, _ := h.inst.SAM.Job(job)
	for _, p := range info.PEs {
		if p.Index == idx {
			added = p.ID
		}
	}
	if added == ids.InvalidPE {
		t.Fatal("SAM has no PE for the added replica")
	}
	if err := h.svc.RestartPE(added); errors.Is(err, ErrUnmanagedJob) {
		t.Fatalf("RestartPE(%s) after a failed resize: %v", added, err)
	}
}

// pipelineApp builds src -> mid -> sink across three PEs with an
// unbounded source.
func pipelineApp(t *testing.T, name, collector string) *adl.Application {
	t.Helper()
	b := compiler.NewApp(name)
	// No period: the harness clock is manual, so a sleeping source would
	// stall; the bounded queues provide backpressure instead.
	src := b.AddOperator("src", ops.KindBeacon).Out(intS).Param("count", "0")
	mid := b.AddOperator("mid", ops.KindFunctor).In(intS).Out(intS).Param("addInt", "seq:1")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(intS).Param("collectorId", collector)
	b.Connect(src, 0, mid, 0)
	b.Connect(mid, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	return app
}
