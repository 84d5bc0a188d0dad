package load

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"testing"

	"streamorca/internal/ckpt"
	"streamorca/internal/opapi"
)

// newWorker returns a keyedWorker with empty state, as Open leaves it.
func newWorker() *keyedWorker { return &keyedWorker{counts: make(map[string]int64)} }

// feed bumps the counters the way Process does, one tuple per key.
func feed(w *keyedWorker, keys ...string) {
	for _, k := range keys {
		w.counts[k]++
	}
}

// capture returns a sealed snapshot holding one KeyedWorker section
// written by fill.
func capture(t testing.TB, fill func(*ckpt.Encoder) error) []byte {
	t.Helper()
	w := ckpt.NewWriter()
	defer w.Close()
	if err := w.Section("work", KindKeyedWorker, fill); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(w.Finish())
}

// section parses snap and returns its one section.
func section(t testing.TB, snap []byte) ckpt.Section {
	t.Helper()
	s, err := ckpt.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sections()) != 1 {
		t.Fatalf("sections = %d, want 1", len(s.Sections()))
	}
	return s.Sections()[0]
}

// entries decodes a SaveState-format section into its keys, in written
// order, and their counts. Keys must be strictly ascending.
func entries(t *testing.T, snap []byte) ([]string, map[string]int64) {
	t.Helper()
	d := section(t, snap).Decoder()
	n := d.Uint()
	keys := make([]string, 0, n)
	counts := make(map[string]int64, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k := d.Str()
		if len(keys) > 0 && keys[len(keys)-1] >= k {
			t.Fatalf("key %q written after %q: not strictly sorted", k, keys[len(keys)-1])
		}
		keys = append(keys, k)
		counts[k] = d.Int()
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("decode: err=%v remaining=%d", d.Err(), d.Remaining())
	}
	return keys, counts
}

// TestKeyedWorkerCaptureIsCanonical: identical state captures to
// identical bytes whatever order the keys arrived in, a restore
// round-trips byte for byte, and a restore replaces a warm key order of
// the same size rather than reusing it.
func TestKeyedWorkerCaptureIsCanonical(t *testing.T) {
	arrivals := []string{"carol", "alice", "bob", "alice", "dave", "carol", "alice"}
	a, b := newWorker(), newWorker()
	feed(a, arrivals...)
	for i := len(arrivals) - 1; i >= 0; i-- {
		feed(b, arrivals[i])
	}
	snap := capture(t, a.SaveState)
	if got := capture(t, b.SaveState); !bytes.Equal(got, snap) {
		t.Fatalf("arrival order changed the capture:\n%x\n%x", snap, got)
	}

	r := newWorker()
	feed(r, "w", "x", "y", "z") // as many keys as snap holds
	capture(t, r.SaveState)     // warm its key order
	if err := r.RestoreState(section(t, snap).Decoder()); err != nil {
		t.Fatal(err)
	}
	if got := capture(t, r.SaveState); !bytes.Equal(got, snap) {
		t.Fatalf("save → restore → save is not a round trip:\n%x\n%x", snap, got)
	}
}

// TestKeyedWorkerCaptureAfterMergeSeesNewKeys: keys a merge adds join a
// warm key order in sorted position, and overlapping keys sum.
func TestKeyedWorkerCaptureAfterMergeSeesNewKeys(t *testing.T) {
	w := newWorker()
	feed(w, "b", "d", "d")
	capture(t, w.SaveState) // warm the key order
	other := newWorker()
	feed(other, "e", "d", "c", "a")
	if err := w.MergeState(section(t, capture(t, other.SaveState)).Decoder()); err != nil {
		t.Fatal(err)
	}
	keys, counts := entries(t, capture(t, w.SaveState))
	if fmt.Sprint(keys) != "[a b c d e]" {
		t.Fatalf("keys after merge = %v", keys)
	}
	want := map[string]int64{"a": 1, "b": 1, "c": 1, "d": 3, "e": 1}
	if !maps.Equal(counts, want) {
		t.Fatalf("counts after merge = %v, want %v", counts, want)
	}
}

// TestKeyedWorkerSplitPartitionsTheState: with a warm key order, the
// cuts of every width are sorted, disjoint, cover the whole state, and
// put each key where opapi.PartitionOf routes its tuples.
func TestKeyedWorkerSplitPartitionsTheState(t *testing.T) {
	w := newWorker()
	for i := 0; i < 300; i++ {
		for j := 0; j <= i%4; j++ {
			feed(w, fmt.Sprintf("user%06d", i*7919%1000))
		}
	}
	capture(t, w.SaveState) // warm the key order
	for _, width := range []int{1, 2, 3, 5} {
		union := make(map[string]int64, len(w.counts))
		for part := 0; part < width; part++ {
			keys, counts := entries(t, capture(t, func(e *ckpt.Encoder) error {
				return w.SplitState(e, part, width)
			}))
			for _, k := range keys {
				if got := opapi.PartitionOf(k, 0, width); got != part {
					t.Fatalf("width %d: key %q cut into part %d, routed to %d", width, k, part, got)
				}
				if _, dup := union[k]; dup {
					t.Fatalf("width %d: key %q in more than one part", width, k)
				}
				union[k] = counts[k]
			}
		}
		if !maps.Equal(union, w.counts) {
			t.Fatalf("width %d: the parts' union differs from the state (%d of %d keys)", width, len(union), len(w.counts))
		}
	}
}

// TestKeyedWorkerHostileCountAllocatesLittle: a payload claiming 2^60
// entries in 3 bytes of entry data fails as corrupt without the claimed
// count sizing any allocation.
func TestKeyedWorkerHostileCountAllocatesLittle(t *testing.T) {
	sec := section(t, capture(t, func(e *ckpt.Encoder) error {
		e.PutUint(1 << 60)
		e.PutStr("a") // 2 bytes
		e.PutInt(1)   // 1 byte
		return nil
	}))
	restore := func() error { return new(keyedWorker).RestoreState(sec.Decoder()) }
	if err := restore(); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("err = %v, want ckpt.ErrCorrupt", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = restore() }); allocs > 16 {
		t.Errorf("hostile restore allocated %.0f objects, want <= 16", allocs)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = restore()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 1024 {
		t.Errorf("hostile restore allocated %d B, want < 1 KiB", perRun)
	}
}

// TestKeyedWorkerSnapshotGolden pins the KeyedWorker snapshot byte for
// byte: a fixed 3-key state, framed as one section of a snapshot with
// no capture instant. A change here changes what every restore reads.
func TestKeyedWorkerSnapshotGolden(t *testing.T) {
	w := newWorker()
	w.counts["user000042"] = 1
	w.counts["bob"] = 300
	w.counts["alice"] = 1 << 20
	want := []byte{
		'O', 'R', 'C', 'K', 0x02, // magic, version
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, // captured: unknown
		0x04, 'w', 'o', 'r', 'k', // section name
		0x0b, 'K', 'e', 'y', 'e', 'd', 'W', 'o', 'r', 'k', 'e', 'r', // kind
		0x1d, 0x03, // payload length; 3 keys, in order
		0x05, 'a', 'l', 'i', 'c', 'e', 0x80, 0x80, 0x80, 0x01, // 1<<20
		0x03, 'b', 'o', 'b', 0xd8, 0x04, // 300
		0x0a, 'u', 's', 'e', 'r', '0', '0', '0', '0', '4', '2', 0x02, // 1
		0x22, 0xfa, 0xde, 0x52, // CRC-32C
	}
	if got := capture(t, w.SaveState); !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes moved:\n got %#v\nwant %#v", got, want)
	}
}

// benchWorker holds the keyed-ckpt benchmark's replica state: 5000
// user%06d keys with counts of one to three varint bytes.
func benchWorker() *keyedWorker {
	w := newWorker()
	for k := 0; k < 5000; k++ {
		w.counts[fmt.Sprintf("user%06d", k)] = int64(k*37%9973 + 1)
	}
	return w
}

// BenchmarkKeyedRestore measures what a restarted replica pays before
// its consume loop starts: parse one snapshot and restore its counters.
func BenchmarkKeyedRestore(b *testing.B) {
	snap := capture(b, benchWorker().SaveState)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ckpt.Parse(snap)
		if err != nil {
			b.Fatal(err)
		}
		if err := new(keyedWorker).RestoreState(s.Sections()[0].Decoder()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyedCapture measures one periodic capture of an unchanged
// key set, the time a replica's consume loop stays parked.
func BenchmarkKeyedCapture(b *testing.B) {
	w := benchWorker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := ckpt.NewWriter()
		if err := cw.Section("work", KindKeyedWorker, w.SaveState); err != nil {
			b.Fatal(err)
		}
		_ = cw.Finish()
		cw.Close()
	}
}
