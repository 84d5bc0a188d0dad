package platform

import (
	"testing"
	"time"

	"streamorca/internal/compiler"
	"streamorca/internal/ids"
	"streamorca/internal/ops"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

func TestNewInstanceRequiresHosts(t *testing.T) {
	if _, err := NewInstance(Options{}); err == nil {
		t.Fatal("instance without hosts accepted")
	}
}

func TestNewInstanceRejectsDuplicateHosts(t *testing.T) {
	_, err := NewInstance(Options{Hosts: []HostSpec{{Name: "h1"}, {Name: "h1"}}})
	if err == nil {
		t.Fatal("duplicate hosts accepted")
	}
}

func TestInstanceEndToEnd(t *testing.T) {
	inst, err := NewInstance(Options{
		Hosts:           []HostSpec{{Name: "h1", Tags: []string{"ssd"}}, {Name: "h2"}},
		MetricsInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	if got := len(inst.Cluster.Hosts()); got != 2 {
		t.Fatalf("SRM knows %d hosts", got)
	}
	schema := tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})
	ops.ResetCollector("plat")
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
	deadline := time.Now().Add(5 * time.Second)
	for ops.Collector("plat").Finals() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never finished")
		}
		time.Sleep(time.Millisecond)
	}
	// FlushMetrics makes samples visible without waiting out the interval.
	inst.FlushMetrics()
	if len(inst.SRM.Query([]ids.JobID{job})) == 0 {
		t.Fatal("no samples after FlushMetrics")
	}
}

func TestInstanceUsesProvidedClock(t *testing.T) {
	clock := vclock.NewManual(time.Unix(1000, 0))
	inst, err := NewInstance(Options{Clock: clock, Hosts: []HostSpec{{Name: "h1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if !inst.Clock.Now().Equal(time.Unix(1000, 0)) {
		t.Fatal("instance ignored the provided clock")
	}
}
