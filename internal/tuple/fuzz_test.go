package tuple

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// fuzzSchema mixes every wire shape — every fixed-width slot type and two
// length-prefixed strings — declared interleaved, unlike their slot order.
var fuzzSchema = MustSchema(
	Attribute{"id", Int},
	Attribute{"price", Float},
	Attribute{"sym", String},
	Attribute{"live", Bool},
	Attribute{"at", Timestamp},
	Attribute{"note", String},
)

// FuzzEncodeDecode drives the codec from both ends: structured values must
// round-trip exactly, and arbitrary bytes must never panic, over-read, or
// decode without accounting for every byte consumed.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(int64(0), 0.0, "", false, int64(0), "", []byte(nil))
	f.Add(int64(-123456789), 3.14, "hello", true, int64(1345999999123456789), "world", []byte{0x80})
	f.Add(int64(1)<<62, -1e300, "\x00\xff", true, int64(-1), string(make([]byte, 300)), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Raw inputs shaped like the format: a valid frame, the frame cut one
	// byte short, its last string's length pointing one past the end, and
	// 8 × 0xff in the Bool slot.
	valid, err := Encode(nil, Build(fuzzSchema).Int("id", 7).Str("sym", "IBM").Str("note", "x").Done())
	if err != nil {
		f.Fatal(err)
	}
	overlong := bytes.Clone(valid)
	overlong[len(overlong)-2]++ // note's length byte: 1 -> 2
	allOnes := bytes.Clone(valid)
	copy(allOnes[16:24], bytes.Repeat([]byte{0xff}, 8))
	for _, raw := range [][]byte{valid, valid[:len(valid)-1], overlong, allOnes} {
		f.Add(int64(0), 0.0, "", false, int64(0), "", raw)
	}
	f.Fuzz(func(t *testing.T, id int64, price float64, sym string, live bool, nanos int64, note string, raw []byte) {
		// Property 1: value round-trip through Encode/DecodeInto.
		in := New(fuzzSchema)
		_ = in.SetInt("id", id)
		_ = in.SetFloat("price", price)
		_ = in.SetString("sym", sym)
		_ = in.SetBool("live", live)
		_ = in.SetTime("at", time.Unix(0, nanos).UTC())
		_ = in.SetString("note", note)
		buf, err := Encode(nil, in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if len(buf) != EncodedSize(in) {
			t.Fatalf("EncodedSize %d != encoded %d", EncodedSize(in), len(buf))
		}
		out := New(fuzzSchema)
		n, err := DecodeInto(&out, buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d", n, len(buf))
		}
		// The frame decoder agrees with DecodeInto: on the encoding as a
		// one-tuple frame, and on a frame of it, the raw bytes and it.
		sameAsDecodeInto(t, buf, []int{len(buf)})
		frame := append(append(bytes.Clone(buf), raw...), buf...)
		sameAsDecodeInto(t, frame, []int{len(buf), len(buf) + len(raw), len(frame)})
		sameFloat := out.Float("price") == price || (price != price && out.Float("price") != out.Float("price"))
		if out.Int("id") != id || !sameFloat || out.String("sym") != sym ||
			out.Bool("live") != live || !out.Time("at").Equal(in.Time("at")) ||
			out.String("note") != note {
			t.Fatalf("round trip mismatch: %s vs %s", out.Format(), in.Format())
		}

		// Property 2: a strict prefix of a valid encoding fails, typed.
		// Inputs here are capacity-clipped, so an over-read panics.
		cut := len(raw) % len(buf) // fuzzSchema's four nums slots: never empty
		if _, err := DecodeInto(&out, buf[:cut:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("decode of %d/%d bytes = %v, want ErrTruncated", cut, len(buf), err)
		}

		// Property 3: arbitrary input never panics; failures are typed; a
		// success consumes no more than the input.
		got := New(fuzzSchema)
		used, err := DecodeInto(&got, raw[:len(raw):len(raw)])
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("decode error not ErrTruncated: %v", err)
			}
			return
		}
		if used > len(raw) {
			t.Fatalf("decode consumed %d of %d input bytes", used, len(raw))
		}
		// A successful decode re-encodes canonically (a padded string
		// length shrinks, a Bool slot becomes 0/1): encoding what that
		// decodes to gives the same bytes again.
		re, err := Encode(nil, got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again := New(fuzzSchema)
		if n, err := DecodeInto(&again, re); err != nil || n != len(re) {
			t.Fatalf("re-decode consumed %d of %d: %v", n, len(re), err)
		}
		if re2, _ := Encode(nil, again); !bytes.Equal(re, re2) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", re, re2)
		}
	})
}

// sameAsDecodeInto decodes frame, whose tuples end at ends, through one
// FrameDecoder and each tuple's bytes alone through DecodeInto, and fails
// unless the two consume as much, fail alike and decode the same tuple.
func sameAsDecodeInto(t *testing.T, frame []byte, ends []int) {
	t.Helper()
	var dec FrameDecoder
	dec.Start(fuzzSchema, frame, len(ends))
	start := 0
	for k, end := range ends {
		piece := frame[start:end:end] // capacity-clipped: an over-read panics
		got, want := New(fuzzSchema), New(fuzzSchema)
		n, err := dec.DecodeInto(&got, piece)
		wn, werr := DecodeInto(&want, piece)
		if n != wn || (err == nil) != (werr == nil) {
			t.Fatalf("tuple %d of the frame: %d bytes, %v; DecodeInto %d bytes, %v", k, n, err, wn, werr)
		}
		if err == nil {
			g, _ := Encode(nil, got)
			w, _ := Encode(nil, want)
			if !bytes.Equal(g, w) {
				t.Fatalf("tuple %d of the frame decoded as %s, DecodeInto as %s", k, got.Format(), want.Format())
			}
		}
		start = end
	}
}

// TestDecodeRejectsOverlongString covers the hostile-length guard: a
// declared string length larger than the input (or than int) must fail
// with ErrTruncated instead of slicing out of range.
func TestDecodeRejectsOverlongString(t *testing.T) {
	s := MustSchema(Attribute{"s", String})
	cases := [][]byte{
		{0x05},      // declares 5 bytes, provides none
		{0x05, 'a'}, // declares 5 bytes, provides one
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // ~MaxUint64
	}
	got := New(s)
	for _, data := range cases {
		if _, err := DecodeInto(&got, data); !errors.Is(err, ErrTruncated) {
			t.Fatalf("DecodeInto(%x) = %v, want ErrTruncated", data, err)
		}
	}
}
