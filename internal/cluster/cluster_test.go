package cluster

import (
	"sync"
	"testing"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/opapi"
	"streamorca/internal/pe"
	"streamorca/internal/srm"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
	"streamorca/internal/wait"
)

var intS = tuple.MustSchema(tuple.Attribute{Name: "v", Type: tuple.Int})

type idleSource struct {
	opapi.Base
}

func (s *idleSource) Run(stop <-chan struct{}) error {
	<-stop
	return nil
}

func testRegistry() *opapi.Registry {
	r := opapi.NewRegistry()
	r.Register("Idle", func() opapi.Operator { return &idleSource{} })
	return r
}

func idleCfg(id ids.PEID, job ids.JobID) pe.Config {
	return pe.Config{
		ID: id, Job: job, App: "app",
		Ops:      []pe.OpSpec{{Name: "src", Kind: "Idle", Outputs: []*tuple.Schema{intS}}},
		Registry: testRegistry(),
	}
}

// startPE places a container and starts it, as SAM's deploy does once
// the container is wired.
func startPE(c *Cluster, host string, cfg pe.Config) (*pe.PE, error) {
	p, err := c.PlacePE(host, cfg)
	if err == nil {
		err = p.Start()
	}
	return p, err
}

func TestAddHostAndInfo(t *testing.T) {
	c := New(nil, srm.New(), time.Hour)
	defer c.Close()
	if err := c.AddHost("h1", "ssd"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost("h1"); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if err := c.AddHost(""); err == nil {
		t.Fatal("empty host accepted")
	}
	hosts := c.Hosts()
	if len(hosts) != 1 || hosts[0].Name != "h1" || !hosts[0].Up || hosts[0].Tags[0] != "ssd" {
		t.Fatalf("Hosts() = %+v", hosts)
	}
	if !c.HostUp("h1") || c.HostUp("ghost") {
		t.Fatal("HostUp wrong")
	}
}

func TestStartStopPE(t *testing.T) {
	s := srm.New()
	c := New(nil, s, time.Hour)
	defer c.Close()
	_ = c.AddHost("h1")
	var mu sync.Mutex
	var exits []srm.PEExit
	s.OnPEExit(func(e srm.PEExit) {
		mu.Lock()
		exits = append(exits, e)
		mu.Unlock()
	})
	p, err := startPE(c, "h1", idleCfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Host() != "h1" {
		t.Fatalf("Host() = %q", p.Host())
	}
	if _, ok := c.PEContainer(1); !ok {
		t.Fatal("container not resident")
	}
	if got := c.Hosts()[0].PEs; got != 1 {
		t.Fatalf("host PE count = %d", got)
	}
	c.StopPE(p)
	mu.Lock()
	defer mu.Unlock()
	if len(exits) != 1 || exits[0].Crashed || exits[0].PE != 1 || exits[0].Host != "h1" {
		t.Fatalf("exits = %+v", exits)
	}
	if _, ok := c.PEContainer(1); ok {
		t.Fatal("container still resident after stop")
	}
}

func TestPlacePEErrors(t *testing.T) {
	c := New(nil, srm.New(), time.Hour)
	defer c.Close()
	_ = c.AddHost("h1")
	if _, err := startPE(c, "ghost", idleCfg(1, 1)); err == nil {
		t.Fatal("unknown host accepted")
	}
	if _, err := startPE(c, "h1", idleCfg(2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := startPE(c, "h1", idleCfg(2, 1)); err == nil {
		t.Fatal("duplicate PE id accepted")
	}
	if err := c.KillPE(99, "x"); err == nil {
		t.Fatal("kill of unknown PE succeeded")
	}
}

func TestKillPEReportsCrash(t *testing.T) {
	s := srm.New()
	c := New(nil, s, time.Hour)
	defer c.Close()
	_ = c.AddHost("h1")
	exitCh := make(chan srm.PEExit, 1)
	s.OnPEExit(func(e srm.PEExit) { exitCh <- e })
	if _, err := startPE(c, "h1", idleCfg(3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.KillPE(3, "fault injection"); err != nil {
		t.Fatal(err)
	}
	e := <-exitCh
	if !e.Crashed || e.Reason != "fault injection" || e.Job != 2 || e.App != "app" {
		t.Fatalf("exit = %+v", e)
	}
}

func TestKillHostKillsAllPEsWithSharedReason(t *testing.T) {
	s := srm.New()
	c := New(nil, s, time.Hour)
	defer c.Close()
	_ = c.AddHost("h1")
	_ = c.AddHost("h2")
	var mu sync.Mutex
	var exits []srm.PEExit
	var downs []srm.HostDown
	s.OnPEExit(func(e srm.PEExit) { mu.Lock(); exits = append(exits, e); mu.Unlock() })
	s.OnHostDown(func(d srm.HostDown) { mu.Lock(); downs = append(downs, d); mu.Unlock() })
	for i := ids.PEID(1); i <= 3; i++ {
		if _, err := startPE(c, "h1", idleCfg(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := startPE(c, "h2", idleCfg(9, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.KillHost("h1"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "3 PE exits after the host kill", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(exits) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	reason := exits[0].Reason
	for _, e := range exits {
		if !e.Crashed || e.Reason != reason || e.Host != "h1" {
			t.Fatalf("exit = %+v", e)
		}
	}
	if len(downs) != 1 || downs[0].Host != "h1" {
		t.Fatalf("downs = %+v", downs)
	}
	if c.HostUp("h1") {
		t.Fatal("host still up")
	}
	if err := c.KillHost("h1"); err == nil {
		t.Fatal("double host kill succeeded")
	}
	if err := c.KillHost("ghost"); err == nil {
		t.Fatal("unknown host kill succeeded")
	}
	// Starting a PE on a dead host fails; revive restores it.
	if _, err := startPE(c, "h1", idleCfg(7, 1)); err == nil {
		t.Fatal("started PE on dead host")
	}
	if err := c.ReviveHost("h1"); err != nil {
		t.Fatal(err)
	}
	if _, err := startPE(c, "h1", idleCfg(7, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.ReviveHost("ghost"); err == nil {
		t.Fatal("revive unknown host succeeded")
	}
}

func TestMetricsLoopPushesToSRM(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	s := srm.New()
	c := New(clock, s, time.Second)
	defer c.Close()
	_ = c.AddHost("h1")
	if _, err := startPE(c, "h1", idleCfg(1, 4)); err != nil {
		t.Fatal(err)
	}
	if got := s.Query([]ids.JobID{4}); len(got) != 0 {
		t.Fatalf("samples before tick: %d", len(got))
	}
	// The HC's ticker registers asynchronously; keep advancing one period
	// until a push lands.
	wait.For(t, "samples after a metric interval", func() bool {
		clock.Advance(time.Second)
		return len(s.Query([]ids.JobID{4})) != 0
	})
}

func TestFlushMetrics(t *testing.T) {
	s := srm.New()
	c := New(nil, s, time.Hour)
	defer c.Close()
	_ = c.AddHost("h1")
	if _, err := startPE(c, "h1", idleCfg(1, 5)); err != nil {
		t.Fatal(err)
	}
	c.FlushMetrics()
	if len(s.Query([]ids.JobID{5})) == 0 {
		t.Fatal("FlushMetrics pushed nothing")
	}
}

func TestCloseStopsEverything(t *testing.T) {
	c := New(nil, srm.New(), time.Hour)
	_ = c.AddHost("h1")
	p, err := startPE(c, "h1", idleCfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if p.State() != pe.Stopped {
		t.Fatalf("PE state after Close = %v", p.State())
	}
	if err := c.AddHost("h2"); err == nil {
		t.Fatal("AddHost after Close succeeded")
	}
	if _, err := startPE(c, "h1", idleCfg(2, 1)); err == nil {
		t.Fatal("PlacePE after Close succeeded")
	}
	c.Close() // idempotent
}

// TestKillHostStopsLoopReviveRestartsIt pins the HC lifecycle: a killed
// host's metrics loop terminates with the host, and a revived host gets
// a fresh loop that resumes periodic pushes.
func TestKillHostStopsLoopReviveRestartsIt(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	s := srm.New()
	c := New(clock, s, time.Second)
	defer c.Close()
	_ = c.AddHost("h1")
	if _, err := startPE(c, "h1", idleCfg(1, 20)); err != nil {
		t.Fatal(err)
	}
	if err := c.KillHost("h1"); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	if c.hosts["h1"].done != nil {
		c.mu.Unlock()
		t.Fatal("killed host still owns a live metrics loop")
	}
	c.mu.Unlock()

	if err := c.ReviveHost("h1"); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	if c.hosts["h1"].done == nil {
		c.mu.Unlock()
		t.Fatal("revived host has no metrics loop")
	}
	c.mu.Unlock()
	if _, err := startPE(c, "h1", idleCfg(2, 21)); err != nil {
		t.Fatal(err)
	}
	// The revived HC's ticker registers asynchronously; keep advancing
	// one period until its push lands.
	wait.For(t, "metrics from the revived host", func() bool {
		clock.Advance(time.Second)
		return len(s.Query([]ids.JobID{21})) != 0
	})
}

// TestDelayMetricsPausesPeriodicPushes: an injected metric delay holds
// back periodic pushes until it elapses, while FlushMetrics (the
// deterministic-test path) still goes through.
func TestDelayMetricsPausesPeriodicPushes(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	s := srm.New()
	c := New(clock, s, time.Hour)
	defer c.Close()
	_ = c.AddHost("h1")
	if _, err := startPE(c, "h1", idleCfg(1, 22)); err != nil {
		t.Fatal(err)
	}
	if err := c.DelayMetrics("ghost", time.Second); err == nil {
		t.Fatal("DelayMetrics accepted unknown host")
	}
	if err := c.DelayMetrics("h1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	h := c.hosts["h1"]
	c.pushHostMetrics(h, false)
	if len(s.Query([]ids.JobID{22})) != 0 {
		t.Fatal("delayed host still pushed periodically")
	}
	c.pushHostMetrics(h, true)
	if len(s.Query([]ids.JobID{22})) == 0 {
		t.Fatal("forced flush blocked by metric delay")
	}
	clock.Advance(11 * time.Second)
	if _, err := startPE(c, "h1", idleCfg(2, 23)); err != nil {
		t.Fatal(err)
	}
	c.pushHostMetrics(h, false)
	if len(s.Query([]ids.JobID{23})) == 0 {
		t.Fatal("periodic pushes did not resume after the delay elapsed")
	}
}

// A placed container is resident but not running until its owner starts
// it. Stopping it before that reports no exit, so StopPE itself must
// take it off the host; and a host that dies in between takes the
// container with it, so the owner's Start fails instead of running a PE
// on a dead host.
func TestPlacedContainerStoppedOrHostKilledBeforeStart(t *testing.T) {
	s := srm.New()
	c := New(nil, s, time.Hour)
	defer c.Close()
	_ = c.AddHost("h1")
	exits := make(chan srm.PEExit, 4)
	s.OnPEExit(func(e srm.PEExit) { exits <- e })

	p, err := c.PlacePE("h1", idleCfg(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.State() != pe.Created || c.Hosts()[0].PEs != 1 {
		t.Fatalf("placed container: state %v, host PEs %d", p.State(), c.Hosts()[0].PEs)
	}
	c.StopPE(p)
	if _, ok := c.PEContainer(1); ok {
		t.Fatal("stopped container still resident")
	}
	if _, err := startPE(c, "h1", idleCfg(1, 1)); err != nil {
		t.Fatalf("same PE id not placeable after StopPE: %v", err)
	}

	q, err := c.PlacePE("h1", idleCfg(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillHost("h1"); err != nil {
		t.Fatal(err)
	}
	if err := q.Start(); err == nil {
		t.Fatal("container started on a dead host")
	}
	if got := c.Hosts()[0].PEs; got != 0 {
		t.Fatalf("dead host holds %d PEs", got)
	}
	select {
	case e := <-exits: // the running PE 1, killed with its host
		if e.PE != 1 || !e.Crashed {
			t.Fatalf("exit = %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no exit for the running PE of the killed host")
	}
	select {
	case e := <-exits:
		t.Fatalf("exit reported for a container that never ran: %+v", e)
	case <-time.After(20 * time.Millisecond):
	}
}
