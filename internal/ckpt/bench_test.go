package ckpt

import (
	"fmt"
	"testing"
	"time"
)

// writeAggState emulates the Aggregate operator's snapshot payload:
// groups sliding windows of (timestamp, float) samples keyed by symbol.
func writeAggState(e *Encoder, groups, samples int) error {
	base := time.Unix(0, 1345852800000000000)
	e.PutUint(uint64(groups))
	for g := 0; g < groups; g++ {
		e.PutStr(fmt.Sprintf("SYM%03d", g))
		e.PutUint(uint64(samples))
		for s := 0; s < samples; s++ {
			e.PutTime(base.Add(time.Duration(s) * time.Millisecond))
			e.PutFloat(100 + float64(s)*0.25)
		}
	}
	return nil
}

// benchSnapshot builds one sealed snapshot of the given shape.
func benchSnapshot(groups, samples int) []byte {
	w := NewWriter()
	defer w.Close()
	_ = w.Section("agg", "Aggregate", func(e *Encoder) error {
		return writeAggState(e, groups, samples)
	})
	_ = w.Section("cnt", "CountSink", func(e *Encoder) error {
		e.PutInt(123456)
		return nil
	})
	return append([]byte(nil), w.Finish()...)
}

// BenchmarkCheckpointEncode measures snapshot assembly (the per-interval
// cost the PE checkpoint driver pays): write + CRC seal, no store I/O.
// ns/op is the latency; B/op via SetBytes gives the snapshot size.
func BenchmarkCheckpointEncode(b *testing.B) {
	for _, shape := range []struct{ groups, samples int }{
		{1, 600},  // the paper's one-symbol 600-sample Trend window
		{10, 600}, // ten symbols
		{100, 64}, // wide fan-out, shallow windows
	} {
		name := fmt.Sprintf("g%d_s%d", shape.groups, shape.samples)
		b.Run(name, func(b *testing.B) {
			size := len(benchSnapshot(shape.groups, shape.samples))
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := NewWriter()
				_ = w.Section("agg", "Aggregate", func(e *Encoder) error {
					return writeAggState(e, shape.groups, shape.samples)
				})
				_ = w.Section("cnt", "CountSink", func(e *Encoder) error {
					e.PutInt(123456)
					return nil
				})
				_ = w.Finish()
				w.Close()
			}
		})
	}
}

// TestEncodeReusesPooledBuffers pins the pooled-buffer fast path for
// large snapshots: a ~100 KB encode (the g10_s600 shape) must keep its
// grown buffers through the pool instead of falling back to growing a
// fresh 512-byte buffer every capture. A regression to the old 64 KB
// pool cap shows up here as the full append-doubling ladder (about ten
// allocations and ~200 KB copied) reappearing on every encode.
func TestEncodeReusesPooledBuffers(t *testing.T) {
	// Pre-render the group names: fmt.Sprintf inside the measured loop
	// would charge its own allocations to the encoder.
	names := make([]string, 10)
	for g := range names {
		names[g] = fmt.Sprintf("SYM%03d", g)
	}
	base := time.Unix(0, 1345852800000000000)
	encode := func() {
		w := NewWriter()
		_ = w.Section("agg", "Aggregate", func(e *Encoder) error {
			e.PutUint(uint64(len(names)))
			for _, name := range names {
				e.PutStr(name)
				e.PutUint(600)
				for s := 0; s < 600; s++ {
					e.PutTime(base.Add(time.Duration(s) * time.Millisecond))
					e.PutFloat(100 + float64(s)*0.25)
				}
			}
			return nil
		})
		if len(w.Finish()) < 64<<10 {
			t.Fatal("snapshot unexpectedly small: the test no longer exercises the large-buffer path")
		}
		w.Close()
	}
	encode() // warm the pool with grown buffers
	if raceEnabled {
		return // the size check above has run; the pool cannot honour the pin
	}
	if allocs := testing.AllocsPerRun(20, encode); allocs > 4 {
		t.Errorf("large snapshot encode allocated %.1f objects/op after warm-up; want <= 4 (pooled buffers not reused)", allocs)
	}
}

// BenchmarkCheckpointDecode measures restore-side parsing: CRC verify,
// section framing, and a full decode of the aggregate payload.
func BenchmarkCheckpointDecode(b *testing.B) {
	data := benchSnapshot(10, 600)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := Parse(data)
		if err != nil {
			b.Fatal(err)
		}
		d := snap.Sections()[0].Decoder()
		groups := d.Uint()
		var sum float64
		for g := uint64(0); g < groups && d.Err() == nil; g++ {
			_ = d.Str()
			n := d.Uint()
			for s := uint64(0); s < n && d.Err() == nil; s++ {
				_ = d.Time()
				sum += d.Float()
			}
		}
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

// BenchmarkCheckpointStoreMem measures a full checkpoint round through
// the in-memory store: encode, persist, load, parse.
func BenchmarkCheckpointStoreMem(b *testing.B) {
	store := NewMemStore()
	data := benchSnapshot(10, 600)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Save("job-1/pe-1", data); err != nil {
			b.Fatal(err)
		}
		got, ok, err := store.Load("job-1/pe-1")
		if !ok || err != nil {
			b.Fatal("load failed")
		}
		if _, err := Parse(got); err != nil {
			b.Fatal(err)
		}
	}
}
