package exp

import (
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/load"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return n
}

// det returns the value of one key=value field of an outcome's
// deterministic line.
func det(t *testing.T, out *Outcome, key string) string {
	t.Helper()
	for _, field := range strings.Fields(out.Deterministic) {
		if v, ok := strings.CutPrefix(field, key+"="); ok {
			return v
		}
	}
	t.Fatalf("deterministic line %q has no %s field", out.Deterministic, key)
	return ""
}

// submitOnly is a routine that owns one job of app and never reacts to
// anything: whatever is killed stays down until the test restarts it.
func submitOnly(app *adl.Application) core.Routine {
	return core.NewRoutine("submitOnly", func(sc *core.SetupContext) error {
		_, err := sc.Actions().SubmitApplication(app.Name, nil)
		return err
	})
}

// bootIdle boots the aggregation pipeline on a checkpointing three-host
// platform under submitOnly and waits until it runs.
func bootIdle(t *testing.T) (*rig, ids.JobID) {
	t.Helper()
	app, err := aggPipeline("KitTest", "kit", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r, err := boot(rigSpec{name: "kit", hosts: 3, store: memStore, routine: submitOnly(app), app: app})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	job, err := r.up(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return r, job
}

func TestAwaitRunning(t *testing.T) {
	r, job := bootIdle(t)
	pe, err := r.pe(job, "agg")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.KillPE(pe, "test"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "the killed PE reported down", func() bool { return len(r.down(job)) == 1 })
	start := time.Now()
	if r.awaitRunning(job, 50*time.Millisecond) {
		t.Fatal("awaitRunning reported a job with a killed PE as running")
	}
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 5*time.Second {
		t.Fatalf("awaitRunning returned after %v, want its 50ms deadline", waited)
	}
	if r.awaitRunning(ids.JobID(987654), 10*time.Millisecond) {
		t.Fatal("awaitRunning reported an unknown job as running")
	}
	if err := r.svc.RestartPE(pe); err != nil {
		t.Fatal(err)
	}
	if !r.awaitRunning(job, 10*time.Second) {
		t.Fatalf("restarted job not running: down %v", r.down(job))
	}
}

func TestSweepRecoversHostsStoreAndPEs(t *testing.T) {
	r, job := bootIdle(t)
	pe, err := r.pe(job, "agg")
	if err != nil {
		t.Fatal(err)
	}
	host, _ := r.svc.HostOfPE(pe)
	if err := r.inst.Cluster.KillHost(host); err != nil {
		t.Fatal(err)
	}
	r.store.FailSaves(1000)
	wait.For(t, "a PE down after the host outage", func() bool { return len(r.down(job)) > 0 })
	lost, err := r.sweep(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 || len(r.down(ids.InvalidJob)) != 0 {
		t.Fatalf("sweep lost %v (down %v)", lost, r.down(ids.InvalidJob))
	}
	for _, h := range r.inst.Cluster.Hosts() {
		if !h.Up {
			t.Fatalf("host %s still down after the sweep", h.Name)
		}
	}
	// Disarmed: a checkpoint goes through to the store again.
	if err := r.svc.CheckpointPE(pe); err != nil {
		t.Fatalf("store still armed after the sweep: %v", err)
	}
}

// openFails makes the kit.flaky operator refuse to open, so a restart
// of its PE cannot succeed.
var openFails atomic.Bool

type flakySink struct{ opapi.Base }

func (flakySink) Open(opapi.Context) error {
	if openFails.Load() {
		return errors.New("flaky: refusing to open")
	}
	return nil
}

func init() {
	opapi.Default.Register("kit.flaky", func() opapi.Operator { return flakySink{} })
}

func TestSweepReportsStragglers(t *testing.T) {
	b := compiler.NewApp("KitFlaky")
	src := b.AddOperator("src", ops.KindBeacon).Out(seqSchema).Param("count", "0").Param("period", "1ms")
	sink := b.AddOperator("sink", "kit.flaky").In(seqSchema)
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	r, err := boot(rigSpec{name: "kit", hosts: 1, routine: submitOnly(app), app: app})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	job, err := r.up(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := r.pe(job, "sink")
	if err != nil {
		t.Fatal(err)
	}
	openFails.Store(true)
	defer openFails.Store(false)
	if err := r.svc.KillPE(pe, "test"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "the killed PE reported down", func() bool { return len(r.down(job)) == 1 })
	lost, err := r.sweep(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 1 || lost[0] != pe {
		t.Fatalf("sweep reported %v lost, want [%v]", lost, pe)
	}
	openFails.Store(false)
	if lost, err = r.sweep(10 * time.Second); err != nil || len(lost) != 0 {
		t.Fatalf("sweep after the obstacle cleared: lost %v, err %v", lost, err)
	}
}

func TestSampleStopsOnHalt(t *testing.T) {
	var n atomic.Int64
	halt := sample(time.Millisecond, func() { n.Add(1) })
	wait.For(t, "three sampler runs", func() bool { return n.Load() >= 3 })
	halt()
	after := n.Load()
	// A late call would come from a ticker still running after halt
	// returned; only time can show that none does.
	time.Sleep(20 * time.Millisecond)
	if got := n.Load(); got != after {
		t.Fatalf("fn ran %d more time(s) after halt", got-after)
	}
	halt() // a second halt is a no-op, so `defer halt()` composes with an explicit one
}

// TestDrainGivesUpOnAQuietMeter: a meter that never reaches the offered
// count releases the caller after four quiet beats, long before the
// timeout (complete drains are covered by the loadtest and fission
// tests).
func TestDrainGivesUpOnAQuietMeter(t *testing.T) {
	start := time.Now()
	drain(load.MeterIn(opapi.NewObjects(), "kit-meter"), 10, 5*time.Millisecond, time.Minute)
	if waited := time.Since(start); waited < 20*time.Millisecond || waited > 10*time.Second {
		t.Fatalf("drain of a silent meter took %v, want about four 5ms beats", waited)
	}
}

// offerRig boots LoadSource -> LatencySink and returns the spec of a
// 200 ms load into it, mode left to the caller.
func offerRig(t *testing.T) offerSpec {
	t.Helper()
	spec := offerSpec{
		Params: Params{Seed: 1, Keys: 100, Skew: 1.1, Duration: 200 * time.Millisecond},
		injID:  "kit-inj", meterID: "kit-meter",
	}
	b := compiler.NewApp("KitOffer")
	src := b.AddOperator("src", load.KindLoadSource).Out(eventSchema).Param("injectorId", spec.injID)
	lat := b.AddOperator("lat", load.KindLatencySink).In(eventSchema).
		Param("meterId", spec.meterID).Param("tsAttr", "ts")
	b.Connect(src, 0, lat, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	r, err := boot(rigSpec{name: "kit", hosts: 1, routine: submitOnly(app), app: app})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	if _, err := r.up(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	spec.objs = r.inst.SAM.Objects()
	return spec
}

// TestOfferDrivesClosesAndDrains: in either mode offer returns with the
// scheduled load offered, the stream closed and every offered tuple
// metered.
func TestOfferDrivesClosesAndDrains(t *testing.T) {
	check := func(t *testing.T, spec offerSpec) *offering {
		o, err := offer(spec, time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		if o.Offered == 0 || o.Missed != 0 || o.meter.Delivered() != o.Offered {
			t.Fatalf("offered %d, missed %d, metered %d", o.Offered, o.Missed, o.meter.Delivered())
		}
		if o.lastAt.Before(o.start) || o.hotKeyShare <= 0 {
			t.Fatalf("last delivery %v before start %v, or no hot-key share (%v)", o.lastAt, o.start, o.hotKeyShare)
		}
		if load.InjectorIn(spec.objs, spec.injID).Push(tuple.New(eventSchema), nil) {
			t.Fatal("injector still open after offer returned")
		}
		return o
	}
	t.Run("open", func(t *testing.T) {
		spec := offerRig(t)
		spec.Rate = 500
		if o := check(t, spec); o.Offered != 100 {
			t.Fatalf("offered %d, want rate x duration = 100", o.Offered)
		}
	})
	t.Run("closed", func(t *testing.T) {
		spec := offerRig(t)
		spec.Users, spec.Think = 4, 10*time.Millisecond
		o := check(t, spec)
		if bound := int64(spec.Users) * (int64(spec.Duration/spec.Think) + 2); o.Offered > bound {
			t.Fatalf("offered %d exceeds closed-loop bound %d", o.Offered, bound)
		}
	})
}

// TestOfferBudgetExpiry: a load nothing takes (no source reads the
// injector) ends at the budget with an error saying what was waited
// for, long before the schedule's own end.
func TestOfferBudgetExpiry(t *testing.T) {
	spec := offerSpec{
		Params: Params{Seed: 1, Keys: 100, Skew: 1.1, Rate: 100_000, Duration: time.Minute},
		objs:   opapi.NewObjects(), injID: "kit-inj", meterID: "kit-meter",
	}
	start := time.Now()
	_, err := offer(spec, 50*time.Millisecond, nil)
	if err == nil || !strings.Contains(err.Error(), "budget 50ms expired waiting for the pipeline to take the load") {
		t.Fatalf("err = %v, want the expired budget named", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("offer returned after %v, want its 50ms budget", waited)
	}
}

// checkOutcome asserts what every scenario's outcome has in common: the
// closing line starts with the scenario's catalog name, and the run
// reported measurements.
func checkOutcome(t *testing.T, name string, out *Outcome) {
	t.Helper()
	if _, ok := Find(name); !ok {
		t.Fatalf("scenario %q is not in the catalog", name)
	}
	if !strings.HasPrefix(out.OK, name+" OK: ") {
		t.Fatalf("closing line %q does not start with %q", out.OK, name+" OK: ")
	}
	if len(out.Metrics) == 0 {
		t.Fatalf("scenario %s reported no metrics", name)
	}
}

// TestScenarioTable: the catalog is well-formed — unique names, a
// one-line Doc each, resolvable through Find.
func TestScenarioTable(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Scenarios {
		if sc.Name == "" || seen[sc.Name] {
			t.Fatalf("scenario name %q empty or duplicated", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Doc == "" || strings.Contains(sc.Doc, "\n") {
			t.Fatalf("scenario %s: Doc must be one non-empty line, got %q", sc.Name, sc.Doc)
		}
		if sc.Run == nil {
			t.Fatalf("scenario %s has no Run", sc.Name)
		}
		if got, ok := Find(sc.Name); !ok || got.Name != sc.Name {
			t.Fatalf("Find(%q) = %v, %v", sc.Name, got.Name, ok)
		}
	}
	if _, ok := Find("no-such-scenario"); ok {
		t.Fatal("Find resolved an unknown name")
	}
}
