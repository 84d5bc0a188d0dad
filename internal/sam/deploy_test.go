package sam_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/compiler"
	"streamorca/internal/ids"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

// deployRounds is how often each deploy-order case runs: a source that
// starts before its outlets exist lost its burst about one time in five
// on a 2-core box, so fifty-odd rounds do not let it through.
const deployRounds = 60

const burstKind = "DeployTestBurst"

// burstArmed gates the burst source: unarmed it idles until stopped,
// armed it emits count tuples as fast as it can and finishes.
var burstArmed atomic.Bool

type burstSource struct {
	opapi.Base
	ctx opapi.Context
	n   int64
}

func (b *burstSource) Open(ctx opapi.Context) error {
	b.ctx = ctx
	cfg := ctx.Params().Bind()
	b.n = cfg.Int("count", 0)
	return cfg.Err()
}

func (b *burstSource) Run(stop <-chan struct{}) error {
	if !burstArmed.Load() {
		<-stop
		return nil
	}
	for i := int64(0); i < b.n; i++ {
		if err := b.ctx.Submit(0, tuple.Build(b.ctx.OutputSchema(0)).Int("seq", i).Done()); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	opapi.Default.Register(burstKind, func() opapi.Operator { return &burstSource{} })
}

// burstApp builds <kind>(count=n) fanning out to sinks CollectSinks, one
// PE each; sink i collects under "<collector>/i".
func burstApp(t *testing.T, kind, collector string, n int64, sinks int) *adl.Application {
	t.Helper()
	b := compiler.NewApp("Burst")
	src := b.AddOperator("src", kind).Out(intS).Param("count", itoa(n))
	for i := 0; i < sinks; i++ {
		id := fmt.Sprintf("%s/%d", collector, i)
		sink := b.AddOperator(fmt.Sprintf("sink%d", i), ops.KindCollectSink).In(intS).Param("collectorId", id)
		b.Connect(src, 0, sink, 0)
	}
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(app.PEs) != 1+sinks {
		t.Fatalf("want %d PEs, got %d", 1+sinks, len(app.PEs))
	}
	return app
}

// awaitBurst waits, with a deadline, for every sink's final mark and
// then checks that the burst reached each whole and in order, once.
func awaitBurst(t *testing.T, inst *platform.Instance, round int, collector string, n, sinks int) {
	t.Helper()
	for i := 0; i < sinks; i++ {
		coll := ops.Collector(inst.SAM.Objects(), fmt.Sprintf("%s/%d", collector, i))
		if !wait.Until(wait.Deadline, 200*time.Microsecond, func() bool { return coll.Finals() > 0 }) {
			t.Fatalf("round %d: no final mark at sink %d (%d of %d tuples)", round, i, coll.Len(), n)
		}
		ts := coll.Tuples()
		if len(ts) != n || coll.Finals() != 1 {
			t.Fatalf("round %d: sink %d saw %d tuples and %d final marks, want %d and 1", round, i, len(ts), coll.Finals(), n)
		}
		for k, tp := range ts {
			if tp.Int("seq") != int64(k) {
				t.Fatalf("round %d: sink %d: tuple %d has seq %d", round, i, k, tp.Int("seq"))
			}
		}
	}
}

// A finite source that runs flat out finishes within microseconds of
// starting; if SAM starts it before the job's static links exist, the
// burst and its final mark fall into an outlet-less port and the sink
// never finalises. Submission must not lose a tuple on a job's own
// connections.
func TestSubmitWiresBeforeSourcesStart(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2")})
	const n = 200
	for round := 0; round < deployRounds; round++ {
		id := fmt.Sprintf("deploy-submit-%d", round)
		jobID, err := inst.SAM.SubmitJob(burstApp(t, ops.KindBeacon, id, n, 1), sam.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		awaitBurst(t, inst, round, id, n, 1)
		if err := inst.SAM.CancelJob(jobID); err != nil {
			t.Fatal(err)
		}
	}
}

// The same on the restart path: the source PE idles through its first
// life, is killed and restarted, and bursts in its second. Everything
// the restarted incarnation emits must reach the sinks, which ran all
// along. The source fans out so that rewiring it takes a while: wiring
// after the start would have to win the race on every link.
func TestRestartWiresBeforeSourceStarts(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2")})
	const n, sinks = 200, 8
	for round := 0; round < deployRounds; round++ {
		id := fmt.Sprintf("deploy-restart-%d", round)
		burstArmed.Store(false)
		jobID, err := inst.SAM.SubmitJob(burstApp(t, burstKind, id, n, sinks), sam.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srcPE := ids.InvalidPE
		info, _ := inst.SAM.Job(jobID)
		for _, p := range info.PEs {
			if len(p.Operators) == 1 && p.Operators[0] == "src" {
				srcPE = p.ID
			}
		}
		if err := inst.SAM.KillPE(srcPE, "deploy test"); err != nil {
			t.Fatal(err)
		}
		wait.For(t, "source PE reported crashed", func() bool {
			info, _ := inst.SAM.Job(jobID)
			for _, p := range info.PEs {
				if p.ID == srcPE {
					return p.State == "crashed"
				}
			}
			return false
		})
		burstArmed.Store(true)
		if err := inst.SAM.RestartPE(srcPE); err != nil {
			t.Fatal(err)
		}
		awaitBurst(t, inst, round, id, n, sinks)
		if err := inst.SAM.CancelJob(jobID); err != nil {
			t.Fatal(err)
		}
	}
}

// A submission that fails at the last step — one operator's Open rejects
// a submission-time value, after other containers of the job have
// started — is rolled back whole: no job, no link, and no container,
// started or not, left on any host.
func TestFailedSubmitLeavesNothingBehind(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2")})
	b := compiler.NewApp("BadFilter")
	src := b.AddOperator("src", ops.KindBeacon).Out(intS).Param("period", "1ms")
	filt := b.AddOperator("filt", ops.KindFilter).In(intS).Out(intS).
		Param("attr", "seq").Param("op", "ge").Param("value", "{{min}}")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(intS).Param("collectorId", "deploy-bad")
	b.Connect(src, 0, filt, 0)
	b.Connect(filt, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{Params: map[string]string{"min": "not-a-number"}}); err == nil {
		t.Fatal("submission with an operator that cannot open succeeded")
	}
	if jobs := inst.SAM.Jobs(); len(jobs) != 0 || inst.SAM.LinkCount() != 0 {
		t.Fatalf("left behind %d job(s), %d link(s)", len(jobs), inst.SAM.LinkCount())
	}
	for _, h := range inst.Cluster.Hosts() {
		if h.PEs != 0 {
			t.Fatalf("host %s still holds %d container(s)", h.Name, h.PEs)
		}
	}
	// The hosts are as good as new: the same application, with a value
	// the filter accepts, runs.
	if _, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{Params: map[string]string{"min": "0"}}); err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "deploy-bad", 4)
}
