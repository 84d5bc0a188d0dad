package platform_test

import (
	"testing"
	"time"

	"streamorca/internal/apps"
	"streamorca/internal/compiler"
	"streamorca/internal/extjob"
	"streamorca/internal/ids"
	"streamorca/internal/load"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
	"streamorca/internal/wait"
)

func TestNewInstanceRequiresHosts(t *testing.T) {
	if _, err := platform.NewInstance(platform.Options{}); err == nil {
		t.Fatal("instance without hosts accepted")
	}
}

func TestNewInstanceRejectsDuplicateHosts(t *testing.T) {
	_, err := platform.NewInstance(platform.Options{Hosts: platformtest.Hosts("h1", "h1")})
	if err == nil {
		t.Fatal("duplicate hosts accepted")
	}
}

func TestInstanceEndToEnd(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2")})
	if got := len(inst.Cluster.Hosts()); got != 2 {
		t.Fatalf("SRM knows %d hosts", got)
	}
	schema := tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})
	b := compiler.NewApp("Plat")
	src := b.AddOperator("src", ops.KindBeacon).Out(schema).Param("count", "5")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(schema).Param("collectorId", "plat")
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coll := ops.Collector(inst.SAM.Objects(), "plat")
	wait.For(t, "pipeline end", func() bool { return coll.Finals() == 1 })
	// FlushMetrics makes samples visible without waiting out the interval.
	inst.FlushMetrics()
	if len(inst.SRM.Query([]ids.JobID{job})) == 0 {
		t.Fatal("no samples after FlushMetrics")
	}
}

func TestInstanceUsesProvidedClock(t *testing.T) {
	clock := vclock.NewManual(time.Unix(1000, 0))
	inst := platformtest.Boot(t, platform.Options{Clock: clock})
	if !inst.Clock.Now().Equal(time.Unix(1000, 0)) {
		t.Fatal("instance ignored the provided clock")
	}
}

// TestInstancesDoNotShareObjects: two platform instances in one process
// run the sentiment application with the same collector, model and store
// ids, and each sees only its own tuples, model and corpus. An injector a
// driver makes before any instance exists feeds the instance's
// LoadSource through the default set — the path a driver that names its
// injector before booting takes.
func TestInstancesDoNotShareObjects(t *testing.T) {
	// The default set is the process's: the injector stays open, so a
	// repeated run finds it drained and reusable.
	inj := load.InjectorFor("iso-inj")
	opts := platform.Options{Hosts: platformtest.Hosts("h1", "h2")}
	insts := []*platform.Instance{platformtest.Boot(t, opts), platformtest.Boot(t, opts)}
	for i, inst := range insts {
		extjob.ModelIn(inst.SAM.Objects(), "iso-model", "flash", "screen")
		app, err := apps.SentimentApp(apps.SentimentConfig{
			Name: "SA", Collector: "iso-coll", ModelID: "iso-model", StoreID: "iso-store",
			Seed: 1, Count: 300 * int64(i+1), Causes: "flash,screen", RecentWindow: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var colls []*ops.Collection
	var stores []*extjob.Store
	for _, inst := range insts {
		coll := ops.Collector(inst.SAM.Objects(), "iso-coll")
		wait.For(t, "pipeline completion", func() bool { return coll.Finals() == 1 })
		store := extjob.StoreIn(inst.SAM.Objects(), "iso-store")
		if coll.Len() == 0 || store.Len() != coll.Len() {
			t.Fatalf("corpus %d, matched %d: want equal and non-zero", store.Len(), coll.Len())
		}
		colls, stores = append(colls, coll), append(stores, store)
	}
	if colls[0].Len() >= colls[1].Len() {
		t.Fatalf("300 tweets matched %d, 600 matched %d: the instances share a collection", colls[0].Len(), colls[1].Len())
	}

	// Recomputing one instance's model leaves the other's at version 1.
	model := extjob.ModelIn(insts[0].SAM.Objects(), "iso-model")
	if err := extjob.NewRunner(nil, 0).Submit(stores[0], model, 1, nil); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "the recomputed model", func() bool { return model.Version() == 2 })
	if v := extjob.ModelIn(insts[1].SAM.Objects(), "iso-model").Version(); v != 1 {
		t.Fatalf("the other instance's model is at version %d", v)
	}

	seqS := tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})
	b := compiler.NewApp("Inject")
	src := b.AddOperator("src", load.KindLoadSource).Out(seqS).Param("injectorId", "iso-inj")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(seqS).Param("collectorId", "iso-load")
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insts[0].SAM.SubmitJob(app, sam.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		inj.Push(tuple.Build(seqS).Int("seq", int64(i)).Done(), nil)
	}
	fed := ops.Collector(insts[0].SAM.Objects(), "iso-load")
	wait.For(t, "injected tuples", func() bool { return fed.Len() == 5 })
	if n := ops.Collector(insts[1].SAM.Objects(), "iso-load").Len(); n != 0 {
		t.Fatalf("the other instance collected %d injected tuples", n)
	}
}
