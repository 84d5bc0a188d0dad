// Command quickstart is the smallest end-to-end orchestrator program:
// it boots a two-host platform with operator-state checkpointing,
// submits a tiny pipeline with a custom stateful operator (registered
// with a declarative descriptor, so the builder validates its
// configuration at Build time), writes an ORCA policy inline that
// restarts crashed PEs, injects a failure, and shows the policy healing
// the application with the operator's state restored from its latest
// snapshot rather than reset to zero.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"streamorca/orca"
	"streamorca/streams"
)

// restoredCount observes what the restarted operator got back from the
// snapshot, so main can print the recovery (single-process demo only).
var restoredCount atomic.Int64

// scaleOp is a custom stateful operator: it adds "delta" to the "seq"
// attribute and counts how many tuples it has scaled. The counter is
// checkpointable state — on a checkpointing platform it survives PE
// restarts. Its descriptor below declares the parameter and port
// shapes, so a misconfigured application fails at Build, not at
// runtime.
type scaleOp struct {
	streams.OperatorBase
	ctx    streams.OpContext
	delta  int64
	scaled int64
	seq    streams.FieldRef
}

func init() {
	streams.RegisterOperatorModel("QuickScale", func() streams.Operator { return &scaleOp{} },
		&streams.OpModel{
			Doc:     "adds delta to the seq attribute, counting scaled tuples",
			Inputs:  streams.ExactlyPorts(1),
			Outputs: streams.ExactlyPorts(1),
			Params: []streams.ParamSpec{
				{Name: "delta", Type: streams.ParamInt, Default: "1", Min: streams.Bound(0), Doc: "amount added to seq"},
			},
		})
}

func (o *scaleOp) Open(ctx streams.OpContext) error {
	o.ctx = ctx
	// A malformed delta fails Open instead of silently running with
	// the default.
	cfg := ctx.Params().Bind()
	o.delta = cfg.Int("delta", 1)
	if err := cfg.Err(); err != nil {
		return err
	}
	var err error
	o.seq, err = ctx.OutputSchema(0).TypedRef("seq", streams.Int)
	return err
}

func (o *scaleOp) Process(port int, t streams.Tuple) error {
	o.scaled++
	o.seq.SetInt(t, o.seq.Int(t)+o.delta)
	return o.ctx.Submit(0, t)
}

// SaveState and RestoreState make the operator checkpointable: the PE
// snapshots the counter (periodically, and on orca.Service.CheckpointPE)
// and a restarted PE hands it back before the first tuple arrives.
func (o *scaleOp) SaveState(e *streams.StateEncoder) error {
	e.PutInt(o.scaled)
	return nil
}

func (o *scaleOp) RestoreState(d *streams.StateDecoder) error {
	v := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	o.scaled = v
	restoredCount.Store(v)
	return nil
}

// restartPolicy is a complete adaptation routine: its Setup submits the
// managed application and pairs a PE-failure scope with its typed
// handler in one expression; the platform checkpoints on an interval,
// so restarting whatever crashes is stateful. Setup errors (unknown
// application, duplicate scope key) surface out of svc.Start instead of
// panicking inside an event handler.
type restartPolicy struct {
	restarted chan streams.PEID
}

func (p *restartPolicy) Name() string { return "restart" }

func (p *restartPolicy) Setup(sc *orca.SetupContext) error {
	fmt.Printf("routine %s setting up\n", sc.Routine())
	if _, err := sc.Actions().SubmitApplication("hello", nil); err != nil {
		return err
	}
	return sc.Subscribe(orca.OnPEFailure(
		orca.NewPEFailureScope("failures").AddApplicationFilter("hello"),
		func(ctx *orca.PEFailureContext, act *orca.Actions) error {
			fmt.Printf("PE %s crashed on %s (%s), operators %v — restarting with restore\n",
				ctx.PE, ctx.Host, ctx.Reason, ctx.Operators)
			if err := act.RestartPE(ctx.PE); err != nil {
				return err
			}
			p.restarted <- ctx.PE
			return nil
		}))
}

func main() {
	// A checkpoint store turns PE restarts stateful. NewFSCheckpointStore
	// persists across processes; the in-memory store is enough here.
	inst, err := streams.NewInstance(streams.InstanceOptions{
		Hosts:              []streams.HostSpec{{Name: "alpha"}, {Name: "beta"}},
		Checkpoint:         streams.NewMemCheckpointStore(),
		CheckpointInterval: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer inst.Close()

	// The operator model catches misconfiguration at Build time: an
	// unknown kind, a mistyped parameter, and a bad port index all
	// surface in one accumulated, operator-qualified error.
	bad := streams.NewApp("broken")
	badSrc := bad.AddOperator("src", "Beacn").Out( // typo'd kind
		streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int}))
	badScale := bad.AddOperator("scale", "QuickScale").
		In(streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})).
		Out(streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})).
		Param("delta", "ten") // not an int64
	bad.Connect(badSrc, 2, badScale, 0) // no output port 2
	if _, err := bad.Build(streams.BuildOptions{}); err != nil {
		fmt.Printf("build-time validation caught the broken app:\n  %v\n\n", err)
	}

	// Build the real application: an unbounded beacon feeding the custom
	// scaler and a collecting sink, one PE per operator so the failure
	// hits a single stage.
	schema := streams.MustSchema(streams.Attribute{Name: "seq", Type: streams.Int})
	b := streams.NewApp("hello")
	src := b.AddOperator("src", "Beacon").Out(schema).
		Param("count", "0").Param("period", "1ms")
	scale := b.AddOperator("scale", "QuickScale").In(schema).Out(schema).
		Param("delta", "10")
	sink := b.AddOperator("sink", "CollectSink").In(schema).
		Param("collectorId", "quickstart")
	b.Connect(src, 0, scale, 0)
	b.Connect(scale, 0, sink, 0)
	app, err := b.Build(streams.BuildOptions{Fusion: streams.FuseNone})
	if err != nil {
		log.Fatal(err)
	}

	policy := &restartPolicy{restarted: make(chan streams.PEID, 1)}
	svc, err := orca.NewRoutineService(orca.Config{
		Name: "quickstart", SAM: inst.SAM, SRM: inst.SRM,
	}, policy)
	if err != nil {
		log.Fatal(err)
	}
	if err := svc.RegisterApplication(app); err != nil {
		log.Fatal(err)
	}
	// Start runs the routine's Setup: the subscription registers and the
	// application submits before the first event is delivered.
	if err := svc.Start(); err != nil {
		log.Fatal(err)
	}
	defer svc.Stop()

	// Let some data flow, then inject a failure into the stateful
	// scaler's PE.
	coll := streams.Collector(inst, "quickstart")
	waitFor("the first 20 tuples", func() bool { return coll.Len() >= 20 })
	jobs := svc.ManagedJobs()
	g, _ := svc.Graph(jobs[0].Job)
	scalePE, _ := g.PEOfOperator("scale")
	host, _ := g.HostOfPE(scalePE)
	fmt.Printf("pipeline running: %d tuples so far; scaler in %s on %s\n", coll.Len(), scalePE, host)

	// Snapshot on demand right before the fault, so the demo recovers
	// the freshest possible state (the 20 ms interval checkpoints too).
	if err := svc.CheckpointPE(scalePE); err != nil {
		log.Fatal(err)
	}
	if err := svc.KillPE(scalePE, "demo fault injection"); err != nil {
		log.Fatal(err)
	}
	select {
	case <-policy.restarted:
	case <-time.After(waitLimit):
		log.Fatalf("the routine did not restart the scaler within %v", waitLimit)
	}

	// Confirm the flow resumes after the restart, with restored state.
	before := coll.Len()
	waitFor("the flow to resume", func() bool { return coll.Len() > before })
	fmt.Printf("flow resumed after restart: %d tuples delivered\n", coll.Len())
	if n := restoredCount.Load(); n > 0 {
		fmt.Printf("scaler state survived the crash: restored counter = %d scaled tuples\n", n)
	} else {
		log.Fatal("scaler state was not restored")
	}
	fmt.Println("quickstart OK")
}

// waitLimit bounds every wait of the demo: a pipeline that stalls ends
// the program instead of hanging it.
const waitLimit = 10 * time.Second

// waitFor polls cond every millisecond, exiting the program if it does
// not hold within waitLimit.
func waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatalf("timed out after %v waiting for %s", waitLimit, what)
		}
		time.Sleep(time.Millisecond)
	}
}
