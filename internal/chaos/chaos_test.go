package chaos_test

import (
	"slices"
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/chaos"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
)

func TestGenerateDeterministic(t *testing.T) {
	opts := chaos.GenOptions{Duration: time.Second, Count: 40, Hosts: 3, PEs: 5, Store: true}
	a := chaos.Generate(42, opts)
	b := chaos.Generate(42, opts)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", a.Events, b.Events)
	}
	if len(a.Events) < opts.Count {
		t.Fatalf("generated %d events, want >= %d", len(a.Events), opts.Count)
	}
	c := chaos.Generate(43, opts)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGenerateHostStateInvariants replays the simulated host state and
// checks the generator's promises: kills only target live hosts and
// always leave a host up, revivals only target dead hosts, offsets
// are non-decreasing, and the trailing cleanup leaves every host up.
func TestGenerateHostStateInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		opts := chaos.GenOptions{Duration: time.Second, Count: 60, Hosts: 4, PEs: 6, Store: true}
		s := chaos.Generate(seed, opts)
		up := make([]bool, opts.Hosts)
		for i := range up {
			up[i] = true
		}
		upCount := opts.Hosts
		var prev time.Duration
		for i, ev := range s.Events {
			if ev.Offset < prev {
				t.Fatalf("seed %d: event %d offset %s < previous %s", seed, i, ev.Offset, prev)
			}
			prev = ev.Offset
			switch ev.Kind {
			case chaos.KillHost:
				if !up[ev.Target] {
					t.Fatalf("seed %d: event %d kills dead host %d", seed, i, ev.Target)
				}
				up[ev.Target] = false
				if upCount--; upCount < 1 {
					t.Fatalf("seed %d: event %d drops live hosts to %d", seed, i, upCount)
				}
			case chaos.ReviveHost:
				if up[ev.Target] {
					t.Fatalf("seed %d: event %d revives live host %d", seed, i, ev.Target)
				}
				up[ev.Target] = true
				upCount++
			case chaos.KillPE:
				if ev.Target < 0 || ev.Target >= opts.PEs {
					t.Fatalf("seed %d: event %d PE target %d out of range", seed, i, ev.Target)
				}
			case chaos.CkptLatency, chaos.MetricDelay:
				if ev.Amount <= 0 {
					t.Fatalf("seed %d: event %d has no amount", seed, i)
				}
			}
		}
		if upCount != opts.Hosts {
			t.Fatalf("seed %d: schedule leaves %d/%d hosts up", seed, upCount, opts.Hosts)
		}
	}
}

func TestGeneratePrunesKinds(t *testing.T) {
	s := chaos.Generate(7, chaos.GenOptions{Count: 30, PEs: 4}) // no hosts, no store
	for i, ev := range s.Events {
		if ev.Kind != chaos.KillPE {
			t.Fatalf("event %d kind %s despite only PEs being available", i, ev.Kind)
		}
	}
	if s = chaos.Generate(7, chaos.GenOptions{Count: 5}); len(s.Events) != 0 {
		t.Fatalf("nothing usable but got %d events", len(s.Events))
	}
}

var chaosIntS = tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})

func chaosApp(t *testing.T, name, collector string) *adl.Application {
	t.Helper()
	b := compiler.NewApp(name)
	src := b.AddOperator("src", ops.KindBeacon).Out(chaosIntS).
		Param("count", "0").Param("period", "200us")
	filt := b.AddOperator("filt", ops.KindFilter).In(chaosIntS).Out(chaosIntS).
		Param("attr", "seq").Param("op", "ge").Param("value", "0")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(chaosIntS).
		Param("collectorId", collector)
	b.Connect(src, 0, filt, 0)
	b.Connect(filt, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func newChaosInstance(t *testing.T, hosts ...string) *platform.Instance {
	t.Helper()
	specs := make([]platform.HostSpec, len(hosts))
	for i, n := range hosts {
		specs[i] = platform.HostSpec{Name: n}
	}
	inst, err := platform.NewInstance(platform.Options{
		Hosts:           specs,
		MetricsInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.Close)
	return inst
}

// TestRunnerHostAndStoreEvents drives host and store faults through a
// live cluster and checks both the report and the resulting state.
func TestRunnerHostAndStoreEvents(t *testing.T) {
	inst := newChaosInstance(t, "h1", "h2")
	store := ckpt.NewFaultStore(ckpt.NewMemStore(), nil)
	r := &chaos.Runner{Cluster: inst.Cluster, SAM: inst.SAM, Store: store}
	rep := r.Run(chaos.Schedule{Events: []chaos.Event{
		{Offset: 0, Kind: chaos.KillHost, Target: 0},
		{Offset: time.Millisecond, Kind: chaos.KillHost, Target: 1}, // last live host: skipped
		{Offset: 2 * time.Millisecond, Kind: chaos.ReviveHost, Target: 0},
		{Offset: 3 * time.Millisecond, Kind: chaos.ReviveHost, Target: 1}, // already up: skipped
		{Offset: 4 * time.Millisecond, Kind: chaos.CkptFail},
		{Offset: 5 * time.Millisecond, Kind: chaos.MetricDelay, Target: 1, Amount: 20 * time.Millisecond},
	}})
	if rep.Applied != 4 || rep.Skipped != 2 {
		t.Fatalf("report = %+v", rep)
	}
	// Every event is journalled; a skipped one says why.
	var skipped []string
	for _, e := range inst.SAM.Journal().Events() {
		if e.Source == "chaos" && e.Err != "" {
			skipped = append(skipped, e.Action+": "+e.Err)
		}
	}
	if want := []string{"kill-host: last live host", "revive-host: already up"}; !slices.Equal(skipped, want) {
		t.Fatalf("journalled skips = %q, want %q", skipped, want)
	}
	if !inst.Cluster.HostUp("h1") || !inst.Cluster.HostUp("h2") {
		t.Fatal("hosts not all up after kill+revive")
	}
	// The CkptFail event armed exactly one failing save.
	if err := store.Save("k", []byte("x")); err == nil {
		t.Fatal("armed store accepted the save")
	}
	if err := store.Save("k", []byte("x")); err != nil {
		t.Fatalf("second save should pass: %v", err)
	}
}

// TestRunnerKillsPE checks PE kill resolution over the deterministic
// PE ordering: the injected kill lands and the crash reason names the
// chaos harness.
func TestRunnerKillsPE(t *testing.T) {
	inst := newChaosInstance(t, "h1", "h2")
	if _, err := inst.SAM.SubmitJob(chaosApp(t, "ChaosKill", "chaos-runner"), sam.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	r := &chaos.Runner{Cluster: inst.Cluster, SAM: inst.SAM}
	rep := r.Run(chaos.Schedule{Events: []chaos.Event{
		{Offset: 0, Kind: chaos.KillPE, Target: 1},
	}})
	if rep.Applied != 1 {
		t.Fatalf("report = %+v", rep)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		crashed := 0
		for _, job := range inst.SAM.Jobs() {
			for _, p := range job.PEs {
				if p.State == "crashed" {
					crashed++
				}
			}
		}
		if crashed == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no crashed PE after injected kill: %+v", inst.SAM.Jobs())
		}
		time.Sleep(time.Millisecond)
	}
}
