package sam_test

import (
	"fmt"
	"testing"

	"streamorca/internal/adl"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/ids"
	"streamorca/internal/load"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/platform/platformtest"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

var keyedS = tuple.MustSchema(
	tuple.Attribute{Name: "user", Type: tuple.String},
	tuple.Attribute{Name: "seq", Type: tuple.Int},
)

// regionApp builds LoadSource -> [split | KeyedWorker xN | merge] ->
// CollectSink: the minimal job with a stateful parallel region whose
// per-key counters a width change must migrate.
func regionApp(t *testing.T, name, injID, collector string, width int) *adl.Application {
	t.Helper()
	b := compiler.NewApp(name)
	src := b.AddOperator("src", load.KindLoadSource).Out(keyedS).
		Param("injectorId", injID)
	work := b.AddOperator("work", load.KindKeyedWorker).In(keyedS).Out(keyedS).
		Param("keyAttr", "user").Parallel(width)
	sink := b.AddOperator("sink", ops.KindCollectSink).In(keyedS).
		Param("collectorId", collector)
	b.Connect(src, 0, work, 0)
	b.Connect(work, 0, sink, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// feedKeys pushes count tuples per key through the injector and waits
// until the sink has seen them all, so no region state is in flight
// when the resize starts.
func feedKeys(t *testing.T, inst *platform.Instance, inj *load.Injector, collector string, keys map[string]int64, expectAtSink int) {
	t.Helper()
	seq := int64(0)
	for k, n := range keys {
		for i := int64(0); i < n; i++ {
			seq++
			inj.Push(tuple.Build(keyedS).Str("user", k).Int("seq", seq).Done(), nil)
		}
	}
	wait.For(t, fmt.Sprintf("%d tuples at sink", expectAtSink), func() bool {
		return ops.Collector(inst.SAM.Objects(), collector).Len() == expectAtSink
	})
}

// replicaKeys returns each replica's snapshot-store key, in partition
// order, resolved from the job's current ADL and placement.
func replicaKeys(t *testing.T, inst *platform.Instance, jobID ids.JobID, region string) ([]string, []string) {
	t.Helper()
	app, ok := inst.SAM.JobADL(jobID)
	if !ok {
		t.Fatalf("no ADL for job %s", jobID)
	}
	r := app.Region(region)
	if r == nil {
		t.Fatalf("job %s has no region %q", jobID, region)
	}
	placement, _, ok := inst.SAM.PEPlacement(jobID)
	if !ok {
		t.Fatalf("no placement for job %s", jobID)
	}
	keys := make([]string, len(r.Replicas))
	for p, name := range r.Replicas {
		idx := app.PEOfOperator(name)
		peID, ok := placement[idx]
		if !ok {
			t.Fatalf("replica %q (PE index %d) has no placement", name, idx)
		}
		keys[p] = fmt.Sprintf("%s/%s", jobID, peID)
	}
	return keys, append([]string(nil), r.Replicas...)
}

// snapshotCounts decodes one replica's KeyedWorker counters from its
// snapshot in the store. A missing snapshot fails the test.
func snapshotCounts(t *testing.T, store ckpt.Store, key, replica string) map[string]int64 {
	t.Helper()
	data, ok, err := store.Load(key)
	if err != nil {
		t.Fatalf("load %s: %v", key, err)
	}
	if !ok {
		t.Fatalf("no snapshot under %s", key)
	}
	snap, err := ckpt.Parse(data)
	if err != nil {
		t.Fatalf("parse %s: %v", key, err)
	}
	for _, sec := range snap.Sections() {
		if sec.Name != replica || sec.Kind != load.KindKeyedWorker {
			continue
		}
		d := sec.Decoder()
		n := d.Uint()
		counts := make(map[string]int64, n)
		for i := uint64(0); i < n; i++ {
			k := d.Str()
			counts[k] = d.Int()
		}
		if err := d.Err(); err != nil {
			t.Fatalf("decode %s: %v", key, err)
		}
		return counts
	}
	t.Fatalf("snapshot %s has no section for %s", key, replica)
	return nil
}

// checkPartitioning asserts the per-replica counts are exactly a
// width-way partition of want: every key present, on the partition the
// split's hash routes it to, exactly once, with its count intact.
func checkPartitioning(t *testing.T, perReplica []map[string]int64, want map[string]int64) {
	t.Helper()
	width := len(perReplica)
	seen := make(map[string]int64, len(want))
	for p, counts := range perReplica {
		for k, v := range counts {
			if _, dup := seen[k]; dup {
				t.Errorf("key %q present in more than one partition", k)
			}
			seen[k] = v
			if got := opapi.PartitionOf(k, 0, width); got != p {
				t.Errorf("key %q landed on partition %d, hash says %d", k, p, got)
			}
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("partitions hold %d keys, fed %d", len(seen), len(want))
	}
	for k, v := range want {
		if seen[k] != v {
			t.Errorf("key %q: count %d, want %d", k, seen[k], v)
		}
	}
}

func fedBatch(n int, prefix string) map[string]int64 {
	keys := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		keys[fmt.Sprintf("%s%02d", prefix, i)] = int64(i%5 + 1)
	}
	return keys
}

func total(keys map[string]int64) int {
	n := int64(0)
	for _, v := range keys {
		n += v
	}
	return int(n)
}

// TestResizeGrowMigratesEveryKey: after a 2->3 resize, the three new
// replica snapshots are exactly a 3-way re-cut of the old per-key
// state — every group's window present, once, on the partition the
// widened hash split will route it to — and the region keeps
// processing at the new width.
func TestResizeGrowMigratesEveryKey(t *testing.T) {
	store := ckpt.NewMemStore()
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3"), Checkpoint: store})
	inj := load.InjectorIn(inst.SAM.Objects(), "rzGrowInj")

	jobID, err := inst.SAM.SubmitJob(regionApp(t, "Grow", "rzGrowInj", "rzGrow", 2), sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	platformtest.AwaitRunning(t, inst, jobID)
	fed := fedBatch(30, "u")
	feedKeys(t, inst, inj, "rzGrow", fed, total(fed))

	if err := inst.SAM.ResizeRegion(jobID, "work", 3); err != nil {
		t.Fatal(err)
	}
	platformtest.AwaitRunning(t, inst, jobID)

	keys, replicas := replicaKeys(t, inst, jobID, "work")
	if len(keys) != 3 {
		t.Fatalf("replica keys after grow: %v", keys)
	}
	perReplica := make([]map[string]int64, len(keys))
	for p := range keys {
		perReplica[p] = snapshotCounts(t, store, keys[p], replicas[p])
	}
	checkPartitioning(t, perReplica, fed)

	// The widened region still moves tuples end to end.
	more := fedBatch(10, "v")
	feedKeys(t, inst, inj, "rzGrow", more, total(fed)+total(more))
}

// TestResizeShrinkMergesWithoutDuplicates: a 3->2 resize folds the
// retiring replica's keys into the survivors — no key duplicated, no
// count lost — and deletes the retired replica's snapshot.
func TestResizeShrinkMergesWithoutDuplicates(t *testing.T) {
	store := ckpt.NewMemStore()
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3"), Checkpoint: store})
	inj := load.InjectorIn(inst.SAM.Objects(), "rzShrinkInj")

	jobID, err := inst.SAM.SubmitJob(regionApp(t, "Shrink", "rzShrinkInj", "rzShrink", 3), sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	platformtest.AwaitRunning(t, inst, jobID)
	fed := fedBatch(30, "u")
	feedKeys(t, inst, inj, "rzShrink", fed, total(fed))

	wideKeys, _ := replicaKeys(t, inst, jobID, "work")
	retired := wideKeys[2]

	if err := inst.SAM.ResizeRegion(jobID, "work", 2); err != nil {
		t.Fatal(err)
	}
	platformtest.AwaitRunning(t, inst, jobID)

	keys, replicas := replicaKeys(t, inst, jobID, "work")
	if len(keys) != 2 {
		t.Fatalf("replica keys after shrink: %v", keys)
	}
	perReplica := make([]map[string]int64, len(keys))
	for p := range keys {
		perReplica[p] = snapshotCounts(t, store, keys[p], replicas[p])
	}
	checkPartitioning(t, perReplica, fed)

	if _, ok, err := store.Load(retired); err != nil || ok {
		t.Fatalf("retired replica snapshot still in store (ok=%v err=%v)", ok, err)
	}

	more := fedBatch(10, "v")
	feedKeys(t, inst, inj, "rzShrink", more, total(fed)+total(more))
}

// TestResizeCorruptSnapshotColdStarts: a snapshot that fails to parse
// mid-migration degrades the resize to a region-wide cold start — the
// resize still succeeds, every PE comes back running, all region
// snapshots are dropped, and the region processes new load with fresh
// state. The bad snapshot loses window state; it never wedges the
// region.
func TestResizeCorruptSnapshotColdStarts(t *testing.T) {
	store := ckpt.NewMemStore()
	inst := platformtest.Boot(t, platform.Options{Hosts: platformtest.Hosts("h1", "h2", "h3"), Checkpoint: store})
	inj := load.InjectorIn(inst.SAM.Objects(), "rzCorruptInj")

	jobID, err := inst.SAM.SubmitJob(regionApp(t, "Corrupt", "rzCorruptInj", "rzCorrupt", 2), sam.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	platformtest.AwaitRunning(t, inst, jobID)
	fed := fedBatch(20, "u")
	feedKeys(t, inst, inj, "rzCorrupt", fed, total(fed))

	// Stop replica 0 so the resize's pre-stop checkpoint skips it, then
	// plant garbage under its snapshot key: migration must hit the
	// corrupt bytes, not a freshly rewritten snapshot.
	oldKeys, _ := replicaKeys(t, inst, jobID, "work")
	app, _ := inst.SAM.JobADL(jobID)
	placement, _, _ := inst.SAM.PEPlacement(jobID)
	r0 := placement[app.PEOfOperator(app.Region("work").Replicas[0])]
	if err := inst.SAM.StopPE(r0); err != nil {
		t.Fatal(err)
	}
	wait.For(t, "replica 0 stopped", func() bool {
		info, _ := inst.SAM.Job(jobID)
		for _, pe := range info.PEs {
			if pe.ID == r0 {
				return pe.State == "stopped"
			}
		}
		return false
	})
	if err := store.Save(oldKeys[0], []byte("this is not an ORCK snapshot")); err != nil {
		t.Fatal(err)
	}

	if err := inst.SAM.ResizeRegion(jobID, "work", 3); err != nil {
		t.Fatalf("resize with corrupt snapshot must cold-start, not fail: %v", err)
	}
	platformtest.AwaitRunning(t, inst, jobID)

	// Cold start dropped every region snapshot.
	newKeys, replicas := replicaKeys(t, inst, jobID, "work")
	for _, k := range append(append([]string(nil), newKeys...), oldKeys...) {
		if _, ok, err := store.Load(k); err != nil || ok {
			t.Fatalf("snapshot %s survived the cold start (ok=%v err=%v)", k, ok, err)
		}
	}

	// The region is live and its state is fresh: new tuples flow, and a
	// checkpoint taken afterwards holds only the new keys.
	more := fedBatch(12, "w")
	feedKeys(t, inst, inj, "rzCorrupt", more, total(fed)+total(more))
	placement, _, _ = inst.SAM.PEPlacement(jobID)
	app, _ = inst.SAM.JobADL(jobID)
	perReplica := make([]map[string]int64, len(replicas))
	for p, name := range replicas {
		if err := inst.SAM.CheckpointPE(placement[app.PEOfOperator(name)]); err != nil {
			t.Fatal(err)
		}
		perReplica[p] = snapshotCounts(t, store, newKeys[p], name)
	}
	checkPartitioning(t, perReplica, more)
}
