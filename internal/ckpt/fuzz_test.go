package ckpt

import (
	"bytes"
	"testing"
	"time"
)

// FuzzParse throws arbitrary bytes — seeded with valid snapshots and
// systematic corruptions of them — at Parse and a full decoder drain.
// Invariants: no panic, valid snapshots round-trip, any accepted
// snapshot's sections decode without over-slicing, and reading a
// section as strings agrees with reading it as byte slices.
func FuzzParse(f *testing.F) {
	valid := func(fill func(w *Writer)) []byte {
		w := NewWriter()
		defer w.Close()
		fill(w)
		return append([]byte(nil), w.Finish()...)
	}
	empty := valid(func(*Writer) {})
	full := valid(func(w *Writer) {
		_ = w.Section("agg", "Aggregate", func(e *Encoder) error {
			e.PutUint(2)
			e.PutStr("IBM")
			e.PutTime(time.Unix(0, 42))
			e.PutFloat(1.5)
			e.PutInt(-7)
			e.PutBool(true)
			return nil
		})
		_ = w.Section("cnt", "CountSink", func(e *Encoder) error {
			e.PutInt(1000)
			return nil
		})
	})
	strs := valid(func(w *Writer) {
		_ = w.Section("s", "K", func(e *Encoder) error {
			for _, s := range []string{"", "a", "IBM", "", "héllo"} {
				e.PutStr(s)
			}
			return nil
		})
	})
	f.Add(empty)
	f.Add(full)
	f.Add(strs)
	f.Add(full[:len(full)-5])            // truncation
	f.Add(append([]byte{}, full[4:]...)) // missing magic
	flipped := append([]byte(nil), full...)
	flipped[6] ^= 0x40 // CRC mismatch
	f.Add(flipped)
	skew := append([]byte(nil), full...)
	skew[4] = Version + 3 // version skew
	f.Add(skew)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Parse(data)
		if err != nil {
			return
		}
		// Accepted input: draining every section with every primitive
		// must stay in bounds (the decoder latches instead of panicking).
		for _, sec := range snap.Sections() {
			d := sec.Decoder()
			for d.Err() == nil && d.Remaining() > 0 {
				_ = d.Int()
				_ = d.Bytes()
				_ = d.Bool()
			}
			// A Str walk and a Bytes walk of one payload agree string
			// for string and stop at the same place.
			bw, sw := sec.Decoder(), sec.Decoder()
			for bw.Err() == nil && bw.Remaining() > 0 {
				b, s := bw.Bytes(), sw.Str()
				if string(b) != s || bw.Remaining() != sw.Remaining() || (bw.Err() == nil) != (sw.Err() == nil) {
					t.Fatalf("Bytes read %q (%d left, err %v), Str read %q (%d left, err %v)",
						b, bw.Remaining(), bw.Err(), s, sw.Remaining(), sw.Err())
				}
			}
		}
		// A parsed snapshot implies an intact CRC: re-parsing the same
		// bytes must agree.
		again, err := Parse(bytes.Clone(data))
		if err != nil || len(again.Sections()) != len(snap.Sections()) {
			t.Fatalf("reparse disagrees: %v", err)
		}
	})
}
