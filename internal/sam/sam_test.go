package sam_test

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/metrics"
	"streamorca/internal/ops"
	"streamorca/internal/pe"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

var intS = tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})

// pipelineApp builds Beacon -> Filter -> CollectSink as three PEs.
func pipelineApp(t *testing.T, name, collector string, count int64) *adl.Application {
	t.Helper()
	b := compiler.NewApp(name)
	src := b.AddOperator("src", ops.KindBeacon).Out(intS).
		Param("count", itoa(count)).Param("period", "200us")
	filt := b.AddOperator("filt", ops.KindFilter).In(intS).Out(intS).
		Param("attr", "seq").Param("op", "ge").Param("value", "0")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(intS).
		Param("collectorId", collector)
	b.Connect(src, 0, filt, 0)
	b.Connect(filt, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func TestSubmitJobRunsPipelineAcrossPEs(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2")})
	app := pipelineApp(t, "Pipe", "p1", 20)
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait.For(t, "20 tuples at sink", func() bool { return ops.Collector(inst.SAM.Objects(), "p1").Len() == 20 })
	info, ok := inst.SAM.Job(jobID)
	if !ok || info.App != "Pipe" || len(info.PEs) != 3 {
		t.Fatalf("JobInfo = %+v", info)
	}
	hosts := map[string]bool{}
	for _, pe := range info.PEs {
		hosts[pe.Host] = true
		if pe.State != "running" {
			t.Fatalf("PE %v state %q", pe.ID, pe.State)
		}
	}
	if len(hosts) != 2 {
		t.Fatalf("PEs not spread over hosts: %+v", info.PEs)
	}
}

func TestSubmitRejectsInvalidAndUnplaceable(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	bad := &adl.Application{Name: ""}
	if _, err := inst.SAM.SubmitJob(bad, sam.SubmitOptions{}); err == nil {
		t.Fatal("invalid ADL submitted")
	}
	app := pipelineApp(t, "Pool", "none", 1)
	app.HostPools = []adl.HostPool{{Name: "ghostpool", Hosts: []string{"nosuchhost"}}}
	for i := range app.PEs {
		app.PEs[i].Pool = "ghostpool"
	}
	if _, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{}); err == nil {
		t.Fatal("unplaceable app submitted")
	}
}

func TestCancelJobStopsEverything(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	app := pipelineApp(t, "Cancel", "c2", 0) // unbounded source
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "c2", 4)
	inst.FlushMetrics()
	if len(inst.SRM.Query([]ids.JobID{jobID})) == 0 {
		t.Fatal("no SRM samples before cancel")
	}
	cs := containers(t, inst, jobID)
	if err := inst.SAM.CancelJob(jobID); err != nil {
		t.Fatal(err)
	}
	if _, ok := inst.SAM.Job(jobID); ok {
		t.Fatal("job still listed after cancel")
	}
	if got := inst.SRM.Query([]ids.JobID{jobID}); len(got) != 0 {
		t.Fatalf("SRM kept %d samples after cancel", len(got))
	}
	stopped(t, cs) // so no tuple flows after cancel
	if err := inst.SAM.CancelJob(jobID); err == nil {
		t.Fatal("double cancel succeeded")
	}
}

// containers returns the containers a job's PEs run in.
func containers(t *testing.T, inst *platform.Instance, job ids.JobID) []*pe.PE {
	t.Helper()
	info, _ := inst.SAM.Job(job)
	var cs []*pe.PE
	for _, p := range info.PEs {
		c, ok := inst.Cluster.PEContainer(p.ID)
		if !ok {
			t.Fatalf("PE %s has no container", p.ID)
		}
		cs = append(cs, c)
	}
	return cs
}

// stopped fails the test unless every container has stopped: its
// goroutines have exited, so it emits nothing more.
func stopped(t *testing.T, cs []*pe.PE) {
	t.Helper()
	for _, c := range cs {
		if c.State() != pe.Stopped {
			t.Fatalf("PE %s is %v, want stopped", c.ID(), c.State())
		}
	}
}

func TestPEFailureNotifiesOwnerAndRestartResumes(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	var mu sync.Mutex
	var failures []sam.PEFailure
	inst.SAM.AddListener("orca1", sam.Listener{
		PEFailed: func(f sam.PEFailure) {
			mu.Lock()
			failures = append(failures, f)
			mu.Unlock()
		},
	})
	app := pipelineApp(t, "Fail", "c3", 0)
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{Owner: "orca1"})
	if err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "c3", 4)

	info, _ := inst.SAM.Job(jobID)
	var sinkPE ids.PEID
	for _, p := range info.PEs {
		if p.Operators[0] == "sink" {
			sinkPE = p.ID
		}
	}
	if err := inst.SAM.KillPE(sinkPE, "injected"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "failure notification", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(failures) == 1
	})
	mu.Lock()
	f := failures[0]
	mu.Unlock()
	if f.PE != sinkPE || f.Job != jobID || f.App != "Fail" || f.Reason != "injected" {
		t.Fatalf("failure = %+v", f)
	}
	if len(f.Operators) != 1 || f.Operators[0] != "sink" {
		t.Fatalf("failure operators = %v", f.Operators)
	}

	n := ops.Collector(inst.SAM.Objects(), "c3").Len()
	if err := inst.SAM.RestartPE(sinkPE); err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "c3", n+1)
	info, _ = inst.SAM.Job(jobID)
	for _, p := range info.PEs {
		if p.ID == sinkPE && (p.Restarts != 1 || p.State != "running") {
			t.Fatalf("restarted PE info = %+v", p)
		}
	}
}

func TestAutoRestartFlag(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	app := pipelineApp(t, "Auto", "c4", 0)
	for i := range app.PEs {
		app.PEs[i].Restart = true
	}
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "c4", 4)
	info, _ := inst.SAM.Job(jobID)
	var srcPE ids.PEID
	for _, p := range info.PEs {
		if p.Operators[0] == "src" {
			srcPE = p.ID
		}
	}
	if err := inst.SAM.KillPE(srcPE, "boom"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "auto restart", func() bool {
		info, _ := inst.SAM.Job(jobID)
		for _, p := range info.PEs {
			if p.ID == srcPE {
				return p.Restarts == 1 && p.State == "running"
			}
		}
		return false
	})
	n := ops.Collector(inst.SAM.Objects(), "c4").Len()
	platformtest.Delivered(t, inst, "c4", n+1)
}

func TestStopPE(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	app := pipelineApp(t, "Stop", "c5", 0)
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "c5", 1)
	info, _ := inst.SAM.Job(jobID)
	var sinkPE ids.PEID
	for _, p := range info.PEs {
		if p.Operators[0] == "sink" {
			sinkPE = p.ID
		}
	}
	if err := inst.SAM.StopPE(sinkPE); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "stopped state", func() bool {
		info, _ := inst.SAM.Job(jobID)
		for _, p := range info.PEs {
			if p.ID == sinkPE {
				return p.State == "stopped"
			}
		}
		return false
	})
	if err := inst.SAM.StopPE(sinkPE); err == nil {
		t.Fatal("stopping a stopped PE succeeded")
	}
}

func TestImportExportAcrossJobs(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})

	bx := compiler.NewApp("Exporter")
	src := bx.AddOperator("src", ops.KindBeacon).Out(intS).Param("count", "0").Param("period", "200us")
	bx.Export(src, 0, "numbers", map[string]string{"kind": "seq"})
	exApp, err := bx.Build(compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}

	bi := compiler.NewApp("Importer")
	sink := bi.AddOperator("sink", ops.KindCollectSink).In(intS).Param("collectorId", "imp")
	bi.Import(sink, 0, "", map[string]string{"kind": "seq"})
	imApp, err := bi.Build(compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}

	exJob, err := inst.SAM.SubmitJob(exApp, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = inst.SAM.SubmitJob(imApp, sam.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "imp", 4)

	// Cancelling the exporter must stop the flow without killing the
	// importer: no container feeds the link, and the link is gone.
	cs := containers(t, inst, exJob)
	if err := inst.SAM.CancelJob(exJob); err != nil {
		t.Fatal(err)
	}
	stopped(t, cs)
	if got := inst.SAM.LinkCount(); got != 0 {
		t.Fatalf("%d links left after exporter cancel", got)
	}
	n := ops.Collector(inst.SAM.Objects(), "imp").Len()

	// Resubmitting the exporter reconnects automatically (§2.1).
	if _, err := inst.SAM.SubmitJob(exApp, sam.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "imp", n+1)
}

func TestExclusivePoolsSeparateReplicas(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3")})
	mk := func(name, coll string) *adl.Application {
		app := pipelineApp(t, name, coll, 0)
		app.MakeExclusive()
		for i := range app.HostPools {
			app.HostPools[i].Size = 1
		}
		return app
	}
	usedHosts := map[string]bool{}
	for i, name := range []string{"R0", "R1", "R2"} {
		jobID, err := inst.SAM.SubmitJob(mk(name, "ex"+name), sam.SubmitOptions{})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		info, _ := inst.SAM.Job(jobID)
		for _, p := range info.PEs {
			usedHosts[p.Host] = true
		}
	}
	if len(usedHosts) != 3 {
		t.Fatalf("replicas share hosts: %v", usedHosts)
	}
	// A fourth exclusive replica must fail: no hosts left.
	if _, err := inst.SAM.SubmitJob(mk("R3", "exR3"), sam.SubmitOptions{}); err == nil {
		t.Fatal("fourth exclusive replica placed")
	}
}

func TestSubmissionParamsReachOperators(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	b := compiler.NewApp("Par")
	src := b.AddOperator("src", ops.KindBeacon).Out(intS).Param("count", "{{n}}")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(intS).Param("collectorId", "par")
	b.Connect(src, 0, sink, 0)
	app, err := b.Build(compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{Params: map[string]string{"n": "7"}}); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "final", func() bool { return ops.Collector(inst.SAM.Objects(), "par").Finals() == 1 })
	if got := ops.Collector(inst.SAM.Objects(), "par").Len(); got != 7 {
		t.Fatalf("submission param ignored: %d tuples", got)
	}
}

func TestControlOperator(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	b := compiler.NewApp("Ctl")
	src := b.AddOperator("src", ops.KindBeacon).Out(intS).Param("count", "0").Param("period", "200us")
	filt := b.AddOperator("filt", ops.KindDynamicFilter).In(intS).Out(intS).
		Param("attr", "seq").Param("op", "ge").Param("value", "0")
	sink := b.AddOperator("sink", ops.KindCollectSink).In(intS).Param("collectorId", "ctl")
	b.Connect(src, 0, filt, 0)
	b.Connect(filt, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseAll})
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "ctl", 1)
	if err := inst.SAM.ControlOperator(jobID, "filt", "setPredicate",
		map[string]string{"attr": "seq", "op": "lt", "value": "0"}); err != nil {
		t.Fatal(err)
	}
	// ControlOperator returns once the command ran on the filter, after
	// the tuples queued ahead of it: the filter has passed all it will.
	c := containers(t, inst, jobID)[0]
	filtCount := func(name string) (v int64) {
		for _, s := range c.MetricsSnapshot() {
			if s.Operator == "filt" && s.Scope == metrics.OperatorScope && s.Name == name {
				v = s.Value
			}
		}
		return v
	}
	passed, seen := filtCount(metrics.OpTuplesSubmitted), filtCount(metrics.OpTuplesProcessed)
	wait.For(t, "20 more tuples at the filter", func() bool { return filtCount(metrics.OpTuplesProcessed) >= seen+20 })
	if got := filtCount(metrics.OpTuplesSubmitted); got != passed {
		t.Fatalf("control command did not throttle flow: the filter passed %d tuples after it", got-passed)
	}
	coll := ops.Collector(inst.SAM.Objects(), "ctl")
	wait.For(t, "the sink to hold what the filter passed", func() bool { return int64(coll.Len()) == passed })
	if err := inst.SAM.ControlOperator(jobID, "ghost", "x", nil); err == nil {
		t.Fatal("control on unknown operator succeeded")
	}
	if err := inst.SAM.ControlOperator(999, "filt", "x", nil); err == nil {
		t.Fatal("control on unknown job succeeded")
	}
}

func TestJobsAndPlacementQueries(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	app := pipelineApp(t, "Query", "q", 0)
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := inst.SAM.Jobs()
	if len(jobs) != 1 || jobs[0].ID != jobID {
		t.Fatalf("Jobs() = %+v", jobs)
	}
	peIDs, hosts, ok := inst.SAM.PEPlacement(jobID)
	if !ok || len(peIDs) != 3 || len(hosts) != 3 {
		t.Fatalf("PEPlacement: %v %v %v", peIDs, hosts, ok)
	}
	if _, ok := inst.SAM.JobADL(jobID); !ok {
		t.Fatal("JobADL missing")
	}
	if _, _, ok := inst.SAM.PEPlacement(999); ok {
		t.Fatal("placement for unknown job")
	}
	if strings.TrimSpace(jobs[0].App) == "" {
		t.Fatal("empty app name in JobInfo")
	}
}

func TestLinkCountTracksCancel(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	app := pipelineApp(t, "Links", "lc", 0) // 3 PEs -> 2 static links
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.SAM.LinkCount(); got != 2 {
		t.Fatalf("LinkCount = %d", got)
	}
	if err := inst.SAM.CancelJob(jobID); err != nil {
		t.Fatal(err)
	}
	if got := inst.SAM.LinkCount(); got != 0 {
		t.Fatalf("LinkCount after cancel = %d", got)
	}
}

// TestCodecErrorDiscardsCounted: tuples a SAM-wired link discards on a
// codec error are counted on the sending PE, one per tuple. No operator
// can submit such a tuple (checkSubmit holds every port to its schema),
// so the test feeds the live link directly: tuples of a wider schema
// leave bytes over when the link decodes them with its own (the case
// transport's TestLinkSchemaMismatchDropped covers), and the invalid
// tuple fails to encode.
func TestCodecErrorDiscardsCounted(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	jobID, err := inst.SAM.SubmitJob(pipelineApp(t, "Codec", "cx", 5), sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait.For(t, "the beacon's 5 tuples at sink", func() bool { return ops.Collector(inst.SAM.Objects(), "cx").Len() == 5 })

	wide := tuple.MustSchema(
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "s", Type: tuple.String},
	)
	link := inst.SAM.LinkFrom("src")
	const sent = 7
	for i := 0; i < sent; i++ {
		link.Send(pe.TupleItem(tuple.Build(wide).Int("seq", int64(i)).Str("s", "leftover").Done()))
	}
	link.Send(pe.TupleItem(tuple.Tuple{}))
	link.Flush()

	info, _ := inst.SAM.Job(jobID)
	for _, p := range info.PEs {
		c, ok := inst.Cluster.PEContainer(p.ID)
		if !ok {
			t.Fatalf("container of PE %s missing", p.ID)
		}
		want := int64(0)
		if p.Operators[0] == "src" {
			want = sent + 1
		}
		if got := c.PEMetrics().Counter(metrics.PETuplesDroppedCodec).Value(); got != want {
			t.Fatalf("PE of %s: %s = %d, want %d", p.Operators[0], metrics.PETuplesDroppedCodec, got, want)
		}
	}
	if got := ops.Collector(inst.SAM.Objects(), "cx").Len(); got != 5 {
		t.Fatalf("sink saw %d tuples, want the beacon's 5 and none of the discarded", got)
	}
}

// TestCheckpointAgeMetricFlowsThroughSRM pins the health signal the
// checkpoint-aware failover policy ranks on: every PE publishes
// lastCheckpointAgeMs through the normal HC→SRM sample path — -1 until
// its state is first anchored, non-negative after CheckpointPE, and
// still non-negative after a restoring restart (the restored snapshot
// anchors the fresh container).
func TestCheckpointAgeMetricFlowsThroughSRM(t *testing.T) {
	store := ckpt.NewMemStore()
	inst := platformtest.Boot(t, platform.Options{Checkpoint: store})
	app := pipelineApp(t, "Age", "age", 0)
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	platformtest.Delivered(t, inst, "age", 4)

	ages := func() map[ids.PEID]int64 {
		inst.FlushMetrics()
		out := make(map[ids.PEID]int64)
		for _, s := range inst.SRM.Query([]ids.JobID{jobID}) {
			if s.Scope == metrics.PEScope && s.Name == metrics.PECheckpointAgeMs {
				out[s.PE] = s.Value
			}
		}
		return out
	}

	info, _ := inst.SAM.Job(jobID)
	if len(info.PEs) != 3 {
		t.Fatalf("PEs = %+v", info.PEs)
	}
	for pe, age := range ages() {
		if age != -1 {
			t.Fatalf("PE %s age before any checkpoint = %d, want -1", pe, age)
		}
	}
	var srcPE ids.PEID
	for _, p := range info.PEs {
		if p.Operators[0] == "src" { // Beacon is stateful: its cursor checkpoints
			srcPE = p.ID
		}
	}
	if err := inst.SAM.CheckpointPE(srcPE); err != nil {
		t.Fatal(err)
	}
	got := ages()
	if got[srcPE] < 0 {
		t.Fatalf("checkpointed PE age = %d, want >= 0", got[srcPE])
	}
	for pe, age := range got {
		if pe != srcPE && age != -1 {
			t.Fatalf("unsnapshotted PE %s age = %d, want -1", pe, age)
		}
	}

	// A restoring restart re-anchors the fresh container.
	if err := inst.SAM.RestartPE(srcPE); err != nil {
		t.Fatal(err)
	}
	if got := ages()[srcPE]; got < 0 {
		t.Fatalf("restored PE age = %d, want >= 0", got)
	}
	c, ok := inst.Cluster.PEContainer(srcPE)
	if !ok {
		t.Fatal("restarted container missing")
	}
	if got := c.PEMetrics().Counter(metrics.PEStateRestores).Value(); got < 1 {
		t.Fatalf("nStateRestores = %d", got)
	}
}

// attempts filters the journal down to one PE's attempts at action.
func attempts(s *sam.SAM, action string, id ids.PEID) []journal.Event {
	return slices.DeleteFunc(s.Journal().Events(), func(e journal.Event) bool {
		return e.Source != "sam" || e.Action != action || e.PE != id
	})
}

// TestJournalKeepsTheNewestAttempts: the journal is bounded. Past
// journal.Limit restart and checkpoint attempts it holds exactly the
// newest Limit, in order, Seq contiguous.
func TestJournalKeepsTheNewestAttempts(t *testing.T) {
	inst := platformtest.Boot(t, platform.Options{})
	const n = journal.Limit + 100
	for i := range n {
		// An unknown PE fails permanently: one journalled attempt each.
		if i%2 == 0 {
			_ = inst.SAM.RestartPE(9999)
		} else {
			_ = inst.SAM.CheckpointPE(9999)
		}
	}
	evs := inst.SAM.Journal().Events()
	if len(evs) != journal.Limit {
		t.Fatalf("journal holds %d events after %d attempts, want %d", len(evs), n, journal.Limit)
	}
	for i, e := range evs {
		seq := uint64(n - journal.Limit + i + 1)
		action := "restart"
		if seq%2 == 0 {
			action = "checkpoint"
		}
		if e.Seq != seq || e.Action != action || e.PE != 9999 || e.Attempt != 1 || e.Err == "" {
			t.Fatalf("event %d = %+v, want attempt %d, a failed %s", i, e, seq, action)
		}
	}
}

// TestRestartRetriesUntilHostReturns: a restart that keeps failing
// while the only host is down succeeds once the host comes back within
// the retry budget — the transient-outage case retries exist for.
func TestRestartRetriesUntilHostReturns(t *testing.T) {
	retry := sam.RetryPolicy{MaxAttempts: 40, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	inst := platformtest.Boot(t, platform.Options{Retry: retry})
	app := pipelineApp(t, "RetryHost", "rr1", 0)
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := inst.SAM.Job(jobID)
	target := info.PEs[0].ID
	if err := inst.Cluster.KillHost("h1"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "PE crashed", func() bool {
		info, _ := inst.SAM.Job(jobID)
		return info.PEs[0].State == "crashed"
	})
	go func() {
		// The host returns once the restart has failed at least once.
		wait.Until(wait.Deadline, time.Millisecond, func() bool { return len(attempts(inst.SAM, "restart", target)) > 0 })
		_ = inst.Cluster.ReviveHost("h1")
	}()
	if err := inst.SAM.RestartPE(target); err != nil {
		t.Fatalf("restart did not outlast the outage: %v", err)
	}
	recs := attempts(inst.SAM, "restart", target)
	if len(recs) < 2 {
		t.Fatalf("expected retries in the journal, got %+v", recs)
	}
	for i, rec := range recs {
		last := i == len(recs)-1
		if last != (rec.Err == "") {
			t.Fatalf("journal attempt %d: err %q", i, rec.Err)
		}
		if !last && rec.Backoff <= 0 {
			t.Fatalf("journal attempt %d has no backoff: %+v", i, rec)
		}
	}
	info, _ = inst.SAM.Job(jobID)
	if info.PEs[0].State != "running" || info.PEs[0].Unplaceable {
		t.Fatalf("PE after retried restart: %+v", info.PEs[0])
	}
}

// TestRestartExhaustionMarksUnplaceable: exhausting the retry budget
// marks the PE unplaceable, escalates exactly one degradation
// notification to the owner, throttles further restarts to single
// attempts, and a later success clears everything.
func TestRestartExhaustionMarksUnplaceable(t *testing.T) {
	retry := sam.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	inst := platformtest.Boot(t, platform.Options{Retry: retry})
	var mu sync.Mutex
	var abandoned []sam.PEFailure
	inst.SAM.AddListener("orc", sam.Listener{PEFailed: func(f sam.PEFailure) {
		if strings.HasPrefix(f.Reason, sam.RestartAbandoned) {
			mu.Lock()
			abandoned = append(abandoned, f)
			mu.Unlock()
		}
	}})
	app := pipelineApp(t, "RetryExhaust", "rr2", 0)
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{Owner: "orc"})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := inst.SAM.Job(jobID)
	target := info.PEs[0].ID
	if err := inst.Cluster.KillHost("h1"); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "PE crashed", func() bool {
		info, _ := inst.SAM.Job(jobID)
		return info.PEs[0].State == "crashed"
	})

	if err := inst.SAM.RestartPE(target); err == nil {
		t.Fatal("restart with no live host succeeded")
	}
	info, _ = inst.SAM.Job(jobID)
	if !info.PEs[0].Unplaceable {
		t.Fatalf("PE not marked unplaceable: %+v", info.PEs[0])
	}
	mu.Lock()
	if len(abandoned) != 1 || !strings.Contains(abandoned[0].Reason, "after 2 attempts") {
		t.Fatalf("degradation notifications = %+v", abandoned)
	}
	mu.Unlock()
	if got := len(attempts(inst.SAM, "restart", target)); got != 2 {
		t.Fatalf("journalled attempts = %d, want 2", got)
	}

	// Unplaceable: the next restart gets one attempt, no second escalation.
	if err := inst.SAM.RestartPE(target); err == nil {
		t.Fatal("restart with no live host succeeded")
	}
	if got := len(attempts(inst.SAM, "restart", target)); got != 3 {
		t.Fatalf("journalled attempts = %d, want 3 (single attempt while unplaceable)", got)
	}
	mu.Lock()
	if len(abandoned) != 1 {
		t.Fatalf("repeated escalation: %+v", abandoned)
	}
	mu.Unlock()

	// Recovery: success clears the mark and records cumulative attempts.
	if err := inst.Cluster.ReviveHost("h1"); err != nil {
		t.Fatal(err)
	}
	if err := inst.SAM.RestartPE(target); err != nil {
		t.Fatal(err)
	}
	info, _ = inst.SAM.Job(jobID)
	if info.PEs[0].State != "running" || info.PEs[0].Unplaceable {
		t.Fatalf("PE after recovery: %+v", info.PEs[0])
	}
	c, ok := inst.Cluster.PEContainer(target)
	if !ok {
		t.Fatal("no container after restart")
	}
	if got := c.PEMetrics().Counter(metrics.PERestartAttempts).Value(); got != 4 {
		t.Fatalf("nRestartAttempts = %d, want 4", got)
	}
}

// TestCheckpointRetriesInjectedStoreFaults: transient store failures
// are retried under the policy; the default zero policy stays
// single-attempt.
func TestCheckpointRetriesInjectedStoreFaults(t *testing.T) {
	store := ckpt.NewFaultStore(ckpt.NewMemStore(), nil)
	retry := sam.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	inst := platformtest.Boot(t, platform.Options{Retry: retry, Checkpoint: store})
	app := pipelineApp(t, "RetryCkpt", "rr3", 0)
	jobID, err := inst.SAM.SubmitJob(app, sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := inst.SAM.Job(jobID)
	target := info.PEs[0].ID
	store.FailSaves(2)
	if err := inst.SAM.CheckpointPE(target); err != nil {
		t.Fatalf("checkpoint did not outlast two injected failures: %v", err)
	}
	recs := attempts(inst.SAM, "checkpoint", target)
	if len(recs) != 3 || recs[0].Err == "" || recs[1].Err == "" || recs[2].Err != "" {
		t.Fatalf("checkpoint journal = %+v", recs)
	}
	// Permanent failures are not retried even with budget left.
	if err := inst.SAM.CheckpointPE(ids.PEID(9999)); err == nil {
		t.Fatal("checkpoint of unknown PE succeeded")
	}
	if n := len(attempts(inst.SAM, "checkpoint", 9999)); n != 1 {
		t.Fatalf("unknown-PE checkpoint journalled %d attempts, want 1", n)
	}
}
