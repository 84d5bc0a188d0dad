package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/load"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/tuple"
)

const (
	// regionName is the declared name of the keyed workloads' parallel
	// operator; the compiler expands it to work/split, work/<i>, work/merge.
	regionName  = "work"
	regionWidth = 2
	// userEvent names the events the events phase raises.
	userEvent = "bench"
	// waitDeadline bounds every wait for the platform to do something it
	// does within milliseconds when healthy.
	waitDeadline = 10 * time.Second
)

// workloadDef is one benchmark workload: a graph, how it is cut into
// PEs, and what runs beside the dataplane. Every workload goes through
// the same phases and reports the same metrics.
type workloadDef struct {
	name   string
	why    string
	graph  graphKind
	fusion compiler.FusionMode
	// ckptEvery, when > 0, gives the platform an in-memory checkpoint
	// store and snapshots every stateful PE at this period.
	ckptEvery time.Duration
	// observeEvery, when > 0, makes the routine subscribe to every
	// operator metric of the job and sets the HC push and the ORCA pull
	// period to it. 0 leaves the routine reacting to failures and user
	// events only, with no periodic observation.
	observeEvery time.Duration
}

// graphKind selects what sits between LoadSource and BenchSink.
type graphKind int

const (
	chainGraph  graphKind = iota // Functor(addInt) -> Functor(addInt)
	keyedGraph                   // KeyedWorker(keyAttr=user).Parallel(2)
	ingestGraph                  // nothing: the ingest-ceiling probe
)

var workloads = []workloadDef{
	{
		name:   "chain-unfused",
		why:    "Functor chain cut into 4 PEs: every hop pays the tuple codec, transport framing and the pe batch inlet; no state, no observation.",
		fusion: compiler.FuseNone,
	},
	{
		name:   "chain-fused",
		why:    "Same chain fused into 1 PE: no codec and no transport, only pe per-tuple queue hops and ops; a codec or transport gain predicts no change here.",
		fusion: compiler.FuseAll,
	},
	{
		name:      "keyed-ckpt",
		why:       "Hash split, 2 stateful KeyedWorker replicas, merge, 50 ms checkpoints: adds partitioning, per-key state, ckpt encode and store, and restore on restart.",
		graph:     keyedGraph,
		fusion:    compiler.FuseNone,
		ckptEvery: 50 * time.Millisecond,
	},
	{
		name:         "adapt",
		why:          "The keyed-ckpt job with the routine observing every operator metric at 10 ms push and pull: what srm and core cost the dataplane and the adaptation loop.",
		graph:        keyedGraph,
		fusion:       compiler.FuseNone,
		ckptEvery:    50 * time.Millisecond,
		observeEvery: 10 * time.Millisecond,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// seqDelta is what the workload's graph adds to seq between source and
// sink: each of the chain's two Functors adds 1.
func (w *workloadDef) seqDelta() int64 {
	if w.graph == chainGraph {
		return 2
	}
	return 0
}

func (w *workloadDef) keyed() bool { return w.graph == keyedGraph }

// killTarget names the operator whose PE the kill cycles crash, and the
// replica index a recovery must be observed on (-1: any tuple proves it).
func (w *workloadDef) killTarget() (op string, part int) {
	if w.keyed() {
		return regionName + "/1", 1
	}
	return "f2", -1
}

// buildApp compiles the workload's graph.
func (w *workloadDef) buildApp(app, injID, sinkID string) (*adl.Application, error) {
	s := eventSchema
	b := compiler.NewApp(app)
	src := b.AddOperator("src", load.KindLoadSource).Out(s).Param("injectorId", injID)
	sink := b.AddOperator("sink", KindBenchSink).In(s).Param("sinkId", sinkID)
	switch w.graph {
	case ingestGraph:
		b.Connect(src, 0, sink, 0)
	case keyedGraph:
		work := b.AddOperator(regionName, load.KindKeyedWorker).In(s).Out(s).
			Param("keyAttr", "user").Parallel(regionWidth)
		b.Connect(src, 0, work, 0)
		b.Connect(work, 0, sink, 0)
	case chainGraph:
		f1 := b.AddOperator("f1", ops.KindFunctor).In(s).Out(s).Param("addInt", "seq:1")
		f2 := b.AddOperator("f2", ops.KindFunctor).In(s).Out(s).Param("addInt", "seq:1")
		b.Connect(src, 0, f1, 0)
		b.Connect(f1, 0, f2, 0)
		b.Connect(f2, 0, sink, 0)
	}
	return b.Build(compiler.Options{Fusion: w.fusion})
}

// killCycle is one kill's hand-off between the harness and the
// routine's failure handler: the handler stamps when it saw the failure
// and when RestartPE returned, and arms the sink's arrival watch.
type killCycle struct {
	watch      *arrivalWatch
	detectedAt time.Time
	restarted  time.Time
	err        error
	done       chan struct{}
}

// routine is the benchmark's adaptation routine: failure -> RestartPE
// (the paper's §5.2 loop), a counting user-event handler, and on the
// observing workload a handler every operator metric is delivered to.
type routine struct {
	w    *workloadDef
	app  *adl.Application
	sink *sinkState

	job      ids.JobID
	submitMs float64

	cycle        atomic.Pointer[killCycle]
	strayFailure atomic.Int64 // PE failures outside a kill cycle
	events       atomic.Int64 // user events handled
	eventLat     atomic.Pointer[load.Histogram]
}

func (r *routine) Name() string { return "bench" }

func (r *routine) Setup(sc *core.SetupContext) error {
	t0 := time.Now()
	job, err := sc.Actions().SubmitApplication(r.app.Name, nil)
	if err != nil {
		return err
	}
	r.job, r.submitMs = job, durMs(time.Since(t0))
	subs := []*core.Subscription{
		core.OnPEFailure(core.NewPEFailureScope("fail").AddApplicationFilter(r.app.Name), r.onFailure),
		core.OnUserEvent(core.NewUserEventScope("user").AddNameFilter(userEvent), r.onUserEvent),
	}
	if r.w.observeEvery > 0 {
		subs = append(subs, core.OnOperatorMetric(
			core.NewOperatorMetricScope("observe").AddApplicationFilter(r.app.Name),
			func(*core.OperatorMetricContext, *core.Actions) error { return nil }))
	}
	return sc.Subscribe(subs...)
}

func (r *routine) onFailure(ctx *core.PEFailureContext, act *core.Actions) error {
	now := time.Now()
	cyc := r.cycle.Swap(nil)
	if cyc == nil {
		r.strayFailure.Add(1)
		return act.RestartPE(ctx.PE)
	}
	// Every goroutine of the dead container has exited by the time the
	// failure is reported, so a tuple sent from now on can only arrive
	// through the restarted one.
	cyc.detectedAt = now
	cyc.watch.after = now
	r.sink.watch.Store(cyc.watch)
	cyc.err = act.RestartPE(ctx.PE)
	cyc.restarted = time.Now()
	close(cyc.done)
	return cyc.err
}

func (r *routine) onUserEvent(ctx *core.UserEventContext, _ *core.Actions) error {
	if h := r.eventLat.Load(); h != nil {
		h.Record(time.Since(ctx.At))
	}
	r.events.Add(1)
	return nil
}

// job is one running incarnation of a workload.
type job struct {
	inst *platform.Instance
	svc  *core.Service
	rt   *routine
	id   ids.JobID
	inj  *load.Injector
	sink *sinkState

	sinkID string
}

// setupTimes are the parts of one set-up, in milliseconds.
type setupTimes struct {
	total, build, submit float64
}

var incarnation atomic.Int64

// startJob brings a workload up the way a user would: compile, boot a
// platform instance, start the routine service (whose Setup submits the
// application), wait for every PE to report running, and push one probe
// tuple through to the sink. Nothing is pushed before every PE runs.
func startJob(w *workloadDef, measured bool, tr *tracer) (*job, setupTimes, error) {
	var st setupTimes
	n := incarnation.Add(1)
	appName := fmt.Sprintf("bench-%s-%d", w.name, n)
	injID, sinkID := appName+"-inj", appName+"-sink"
	j := &job{sinkID: sinkID, inj: load.InjectorFor(injID), sink: newSink(sinkID, w.seqDelta(), measured)}

	t0 := time.Now()
	root := tr.begin("setup", -1)
	defer tr.end(root)

	sp := tr.begin("compiler.build", root)
	app, err := w.buildApp(appName, injID, sinkID)
	tr.end(sp)
	if err != nil {
		return nil, st, err
	}
	st.build = durMs(time.Since(t0))

	sp = tr.begin("platform.new", root)
	opts := platform.Options{
		Hosts:           []platform.HostSpec{{Name: "h1"}, {Name: "h2"}, {Name: "h3"}},
		MetricsInterval: w.observeEvery,
	}
	if w.ckptEvery > 0 {
		opts.Checkpoint = ckpt.NewMemStore()
		opts.CheckpointInterval = w.ckptEvery
	}
	j.inst, err = platform.NewInstance(opts)
	tr.end(sp)
	if err != nil {
		return nil, st, err
	}

	sp = tr.begin("sam.submit", root)
	j.rt = &routine{w: w, app: app, sink: j.sink}
	pull := w.observeEvery
	if pull == 0 {
		pull = time.Hour
	}
	j.svc, err = core.NewRoutineService(core.Config{
		Name: "benchOrca", SAM: j.inst.SAM, SRM: j.inst.SRM, PullInterval: pull,
	}, j.rt)
	if err == nil {
		err = j.svc.RegisterApplication(app)
	}
	if err == nil {
		err = j.svc.Start()
	}
	tr.end(sp)
	if err != nil {
		j.inst.Close()
		return nil, st, err
	}
	j.id, st.submit = j.rt.job, j.rt.submitMs

	sp = tr.begin("wait.running", root)
	err = waitFor(waitDeadline, "every PE running", j.allRunning)
	tr.end(sp)
	if err == nil {
		sp = tr.begin("first_tuple", root)
		t := tuple.New(eventSchema)
		seqRef.SetInt(t, -1)
		j.inj.Push(t, nil)
		err = waitFor(waitDeadline, "first tuple at the sink", func() bool { return j.sink.probes.Load() > 0 })
		tr.end(sp)
	}
	if err != nil {
		j.close()
		return nil, st, err
	}
	st.total = durMs(time.Since(t0))
	return j, st, nil
}

// allRunning reports whether SAM sees every PE of the job running.
func (j *job) allRunning() bool {
	info, ok := j.inst.SAM.Job(j.id)
	if !ok || len(info.PEs) == 0 {
		return false
	}
	for _, p := range info.PEs {
		if p.State != "running" {
			return false
		}
	}
	return true
}

// close tears the incarnation down.
func (j *job) close() {
	j.svc.Stop()
	j.inst.Close()
	dropSink(j.sinkID)
}

// opLabel turns an operator instance name into the suffix of its
// per-operator metrics: "work/split" -> "split", "work/0" -> "work0".
func opLabel(op string) string {
	if rest, ok := strings.CutPrefix(op, regionName+"/"); ok {
		if rest == "split" || rest == "merge" {
			return rest
		}
		return regionName + rest
	}
	return op
}

// waitFor polls cond until it holds or the deadline passes. It yields
// for the first two milliseconds, so that what usually takes
// microseconds is not timed to the granularity of a sleep, and sleeps
// between polls after that.
func waitFor(d time.Duration, what string, cond func() bool) error {
	start := time.Now()
	for !cond() {
		switch waited := time.Since(start); {
		case waited > d:
			return fmt.Errorf("timed out after %s waiting for %s", d, what)
		case waited < 2*time.Millisecond:
			runtime.Gosched()
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}
