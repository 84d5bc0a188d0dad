package pe

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

// accumulator sums every value it sees — the minimal stateful operator.
type accumulator struct {
	opapi.Base
	ctx opapi.Context
	mu  sync.Mutex
	sum int64
}

func (a *accumulator) Open(ctx opapi.Context) error { a.ctx = ctx; return nil }

func (a *accumulator) Process(port int, t tuple.Tuple) error {
	a.mu.Lock()
	a.sum += t.Int("v")
	a.mu.Unlock()
	return nil
}

func (a *accumulator) SaveState(e *ckpt.Encoder) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	e.PutInt(a.sum)
	return nil
}

func (a *accumulator) RestoreState(d *ckpt.Decoder) error {
	v := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	a.sum = v
	a.mu.Unlock()
	return nil
}

func (a *accumulator) value() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum
}

func ckptRegistry(acc *accumulator, n int) *opapi.Registry {
	reg := opapi.NewRegistry()
	reg.Register("TestSource", func() opapi.Operator { return &testSource{n: n} })
	reg.Register("Acc", func() opapi.Operator { return acc })
	return reg
}

func accSpec(name string) OpSpec {
	return OpSpec{Name: name, Kind: "Acc", Inputs: []*tuple.Schema{intSchema}}
}

func newCkptPE(t *testing.T, acc *accumulator, n int, cfgCkpt CkptConfig) *PE {
	t.Helper()
	p, err := New(Config{
		ID: 7, Job: 1, App: "ckpt", Host: "h1",
		Ops:      []OpSpec{srcSpec("src"), accSpec("acc")},
		Wires:    []Wire{{"src", 0, "acc", 0}},
		Registry: ckptRegistry(acc, n),
		Ckpt:     cfgCkpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckpointRestore: state captured from a running PE is restored
// into a fresh container armed with Restore.
func TestCheckpointRestore(t *testing.T) {
	store := ckpt.NewMemStore()
	acc1 := &accumulator{}
	p1 := newCkptPE(t, acc1, 10, CkptConfig{Store: store, Key: "k"})
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "source drained", func() bool { return acc1.value() == 45 })
	n, err := p1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("snapshot size = %d", n)
	}
	if got := p1.PEMetrics().Counter(metrics.PECheckpoints).Value(); got != 1 {
		t.Fatalf("nCheckpoints = %d", got)
	}
	p1.Stop()

	// A replacement container without Restore starts cold.
	accCold := &accumulator{}
	pCold := newCkptPE(t, accCold, 0, CkptConfig{Store: store, Key: "k"})
	if err := pCold.Start(); err != nil {
		t.Fatal(err)
	}
	if got := accCold.value(); got != 0 {
		t.Fatalf("cold start restored: sum = %d", got)
	}
	pCold.Stop()

	// With Restore armed the state comes back before processing begins,
	// and new tuples extend it.
	acc2 := &accumulator{}
	p2 := newCkptPE(t, acc2, 10, CkptConfig{Store: store, Key: "k", Restore: true})
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "restored sum extended", func() bool { return acc2.value() == 90 })
	if got := p2.PEMetrics().Counter(metrics.PEStateRestores).Value(); got != 1 {
		t.Fatalf("nStateRestores = %d", got)
	}
	p2.Stop()
}

// TestCheckpointAfterFinals: capturing an operator whose inputs have all
// finalised must not hang — the driver falls back to inline capture.
func TestCheckpointAfterFinals(t *testing.T) {
	store := ckpt.NewMemStore()
	acc := &accumulator{}
	p := newCkptPE(t, acc, 5, CkptConfig{Store: store, Key: "k2"})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// The bounded source finishes and the accumulator sees its final
	// punctuation, ending its consume loop.
	waitCond(t, "consume loop exit", func() bool {
		select {
		case <-p.byName["acc"].loopDone:
			return true
		default:
			return false
		}
	})
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapData, ok, _ := store.Load("k2")
	if !ok {
		t.Fatal("no snapshot saved")
	}
	snap, err := ckpt.Parse(snapData)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sec := range snap.Sections() {
		if sec.Name == "acc" {
			found = true
			if v := sec.Decoder().Int(); v != 10 {
				t.Fatalf("captured sum = %d", v)
			}
		}
	}
	if !found {
		t.Fatal("acc section missing")
	}
	p.Stop()
}

// TestRestoreDiscardsCorruptSnapshot: a corrupt or mismatched snapshot
// is journalled and skipped; the PE starts fresh instead of failing.
func TestRestoreDiscardsCorruptSnapshot(t *testing.T) {
	store := ckpt.NewMemStore()
	if err := store.Save("bad", []byte("not a snapshot at all")); err != nil {
		t.Fatal(err)
	}
	ring := journal.New(nil)
	acc := &accumulator{}
	p, err := New(Config{
		ID: 8, Job: 1, App: "ckpt", Host: "h1",
		Ops:      []OpSpec{srcSpec("src"), accSpec("acc")},
		Wires:    []Wire{{"src", 0, "acc", 0}},
		Registry: ckptRegistry(acc, 3),
		Ckpt:     CkptConfig{Store: store, Key: "bad", Restore: true},
		Journal:  ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "fresh run completes", func() bool { return acc.value() == 3 })
	if got := p.PEMetrics().Counter(metrics.PEStateRestores).Value(); got != 0 {
		t.Fatalf("nStateRestores = %d", got)
	}
	if !discarded(ring, 8, "bad") {
		t.Fatalf("discard not journalled: %+v", ring.Events())
	}
	p.Stop()
}

// TestRestoreSurvivesTornFSSnapshot: a snapshot file truncated after
// commit (torn storage below the rename's guarantee) is detected by the
// CRC, journalled, and discarded — the replacement container cold-starts
// and runs instead of failing, so a damaged store never blocks a
// restart.
func TestRestoreSurvivesTornFSSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	acc1 := &accumulator{}
	p1 := newCkptPE(t, acc1, 10, CkptConfig{Store: store, Key: "torn"})
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "source drained", func() bool { return acc1.value() == 45 })
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p1.Stop()

	// Tear the committed file: drop its tail, keeping the header intact.
	path := filepath.Join(dir, "torn.ckpt")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	ring := journal.New(nil)
	acc2 := &accumulator{}
	p2, err := New(Config{
		ID: 7, Job: 1, App: "ckpt", Host: "h1",
		Ops:      []OpSpec{srcSpec("src"), accSpec("acc")},
		Wires:    []Wire{{"src", 0, "acc", 0}},
		Registry: ckptRegistry(acc2, 3),
		Ckpt:     CkptConfig{Store: store, Key: "torn", Restore: true},
		Journal:  ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "cold run completes", func() bool { return acc2.value() == 3 })
	if got := p2.PEMetrics().Counter(metrics.PEStateRestores).Value(); got != 0 {
		t.Fatalf("nStateRestores = %d, want 0 (torn snapshot must not restore)", got)
	}
	if !discarded(ring, 7, "torn") {
		t.Fatalf("discard not journalled: %+v", ring.Events())
	}
	p2.Stop()
}

// discarded reports whether the ring records PE id discarding the
// snapshot under key, with the reason.
func discarded(ring *journal.Ring, id ids.PEID, key string) bool {
	for _, e := range ring.Events() {
		if e.Source == "pe" && e.PE == id && e.Action == "discard-checkpoint" && e.Target == key && e.Err != "" {
			return true
		}
	}
	return false
}

// TestRestoreSkipsKindMismatch: a section whose operator kind changed
// under a reused name never flows into the new operator.
func TestRestoreSkipsKindMismatch(t *testing.T) {
	store := ckpt.NewMemStore()
	w := ckpt.NewWriter()
	defer w.Close()
	if err := w.Section("acc", "SomethingElse", func(e *ckpt.Encoder) error {
		e.PutInt(999)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("mismatch", w.Finish()); err != nil {
		t.Fatal(err)
	}
	acc := &accumulator{}
	p := newCkptPE(t, acc, 0, CkptConfig{Store: store, Key: "mismatch", Restore: true})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if got := acc.value(); got != 0 {
		t.Fatalf("mismatched section restored: sum = %d", got)
	}
	if got := p.PEMetrics().Counter(metrics.PEStateRestores).Value(); got != 0 {
		t.Fatalf("nStateRestores = %d", got)
	}
	p.Stop()
}

// ageGauge reads the snapshot-age gauge straight off the PE metric set.
func ageGauge(p *PE) int64 {
	return p.PEMetrics().Counter(metrics.PECheckpointAgeMs).Value()
}

// ageSample extracts lastCheckpointAgeMs from a full metric snapshot —
// the value SRM (and therefore the orchestrator's PE-metric events)
// would observe.
func ageSample(t *testing.T, p *PE) int64 {
	t.Helper()
	for _, s := range p.MetricsSnapshot() {
		if s.Scope == metrics.PEScope && s.Name == metrics.PECheckpointAgeMs {
			return s.Value
		}
	}
	t.Fatal("lastCheckpointAgeMs missing from metrics snapshot")
	return 0
}

// TestCheckpointAgeGauge: the gauge reports -1 before any snapshot,
// zeroes on a checkpoint, and ages with the platform clock at snapshot
// time.
func TestCheckpointAgeGauge(t *testing.T) {
	clock := vclock.NewManual(time.Unix(1000, 0))
	store := ckpt.NewMemStore()
	acc := &accumulator{}
	p, err := New(Config{
		ID: 9, Job: 1, App: "ckpt", Host: "h1",
		Ops:      []OpSpec{srcSpec("src"), accSpec("acc")},
		Wires:    []Wire{{"src", 0, "acc", 0}},
		Registry: ckptRegistry(acc, 4),
		Clock:    clock,
		Ckpt:     CkptConfig{Store: store, Key: "age"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if got := ageGauge(p); got != -1 {
		t.Fatalf("pre-checkpoint gauge = %d, want -1", got)
	}
	if got := ageSample(t, p); got != -1 {
		t.Fatalf("pre-checkpoint sample = %d, want -1", got)
	}
	waitCond(t, "source drained", func() bool { return acc.value() == 6 })
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := ageGauge(p); got != 0 {
		t.Fatalf("gauge right after checkpoint = %d, want 0", got)
	}
	clock.Advance(1500 * time.Millisecond)
	if got := ageSample(t, p); got != 1500 {
		t.Fatalf("aged sample = %d, want 1500", got)
	}
	// A second checkpoint re-anchors.
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := ageSample(t, p); got != 0 {
		t.Fatalf("re-anchored sample = %d, want 0", got)
	}
}

// TestCheckpointAgeAnchorsOnRestore: a container that adopted a snapshot
// at start-up reports a fresh age instead of -1, so the failover policy
// can rank a restored replica by the state it actually holds.
func TestCheckpointAgeAnchorsOnRestore(t *testing.T) {
	store := ckpt.NewMemStore()
	acc1 := &accumulator{}
	p1 := newCkptPE(t, acc1, 10, CkptConfig{Store: store, Key: "ra"})
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "source drained", func() bool { return acc1.value() == 45 })
	if _, err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p1.Stop()

	acc2 := &accumulator{}
	p2 := newCkptPE(t, acc2, 0, CkptConfig{Store: store, Key: "ra", Restore: true})
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	defer p2.Stop()
	if got := ageSample(t, p2); got < 0 {
		t.Fatalf("restored container age = %d, want >= 0", got)
	}

	// Without Restore the replacement container has no state anchor.
	acc3 := &accumulator{}
	p3 := newCkptPE(t, acc3, 0, CkptConfig{Store: store, Key: "ra"})
	if err := p3.Start(); err != nil {
		t.Fatal(err)
	}
	defer p3.Stop()
	if got := ageSample(t, p3); got != -1 {
		t.Fatalf("cold container age = %d, want -1", got)
	}
}

// TestCheckpointAgeGaugeRace drives the checkpoint driver (which
// re-anchors the gauge) concurrently with PEMetrics() reads and full
// metric-snapshot dispatch — the paths the per-host controller and the
// orchestrator's pull rounds exercise. Run under -race, it pins the
// gauge's atomicity.
func TestCheckpointAgeGaugeRace(t *testing.T) {
	store := ckpt.NewMemStore()
	acc := &accumulator{}
	p := newCkptPE(t, acc, 0, CkptConfig{Store: store, Key: "race"})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := p.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if got := ageGauge(p); got < -1 {
				t.Errorf("gauge = %d", got)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p.MetricsSnapshot()
		}
	}()
	wg.Wait()
	if got := ageGauge(p); got < 0 {
		t.Fatalf("final gauge = %d, want >= 0", got)
	}
}

// TestCheckpointUnconfigured: Checkpoint without a store fails cleanly.
func TestCheckpointUnconfigured(t *testing.T) {
	acc := &accumulator{}
	p := newCkptPE(t, acc, 1, CkptConfig{})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err == nil {
		t.Fatal("expected error")
	}
	p.Stop()
}
