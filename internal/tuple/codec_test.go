package tuple

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// goldenTuple is the fuzzSchema tuple whose bytes TestWireFormatGolden
// pins: a negative Int, a NaN, true, the zero time, an empty string and
// one long enough for a two-byte length.
func goldenTuple() Tuple {
	return Build(fuzzSchema).
		Int("id", -2).Float("price", math.NaN()).Str("sym", "").
		Bool("live", true).Time("at", time.Time{}).Str("note", strings.Repeat("n", 300)).Done()
}

// TestWireFormatGolden pins the wire format byte for byte: nums slots 8
// bytes little endian in slot order (so fuzzSchema's strings, declared
// between the numerics, come after all of them), then strs slots as
// uvarint length + bytes.
func TestWireFormatGolden(t *testing.T) {
	numsOnly := MustSchema(Attribute{"n", Int}, Attribute{"f", Float})
	strsOnly := MustSchema(Attribute{"a", String}, Attribute{"b", String})
	cases := []struct {
		name string
		t    Tuple
		want []byte
	}{
		{"mixed", goldenTuple(), append([]byte{
			0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // id = -2
			0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f, // price = NaN (0x7ff8000000000001)
			0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // live = true
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // at = zero time (math.MinInt64)
			0x00,       // sym = ""
			0xac, 0x02, // len(note) = 300
		}, bytes.Repeat([]byte{'n'}, 300)...)},
		{"nums only", Build(numsOnly).Int("n", 1).Float("f", 1).Done(), []byte{
			0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
		}},
		{"strs only", Build(strsOnly).Str("a", "hi").Str("b", "").Done(), []byte{0x02, 'h', 'i', 0x00}},
	}
	for _, c := range cases {
		got, err := Encode(nil, c.t)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s: encoded\n%x\nwant\n%x", c.name, got, c.want)
		}
		if EncodedSize(c.t) != len(c.want) {
			t.Fatalf("%s: EncodedSize = %d, want %d", c.name, EncodedSize(c.t), len(c.want))
		}
		back := New(c.t.Schema())
		if n, err := DecodeInto(&back, c.want); err != nil || n != len(c.want) {
			t.Fatalf("%s: DecodeInto = %d, %v; want %d", c.name, n, err, len(c.want))
		}
		if back.Format() != c.t.Format() {
			t.Fatalf("%s: decoded %s, want %s", c.name, back.Format(), c.t.Format())
		}
	}
}

// TestDecodeNormalisesBool: whatever non-zero value a Bool slot carries
// on the wire, the decoded slot is true and goes back out as 1, so no
// operator ever sees a Bool slot that is neither 0 nor 1.
func TestDecodeNormalisesBool(t *testing.T) {
	canon, err := Encode(nil, goldenTuple())
	if err != nil {
		t.Fatal(err)
	}
	const liveOff = 16 // fuzzSchema's third nums slot
	for _, slot := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{0x02, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0x80},
	} {
		wire := bytes.Clone(canon)
		copy(wire[liveOff:], slot)
		got := New(fuzzSchema)
		if _, err := DecodeInto(&got, wire); err != nil {
			t.Fatal(err)
		}
		if !got.Bool("live") {
			t.Fatalf("Bool slot %x decoded to false", slot)
		}
		re, err := Encode(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, canon) {
			t.Fatalf("Bool slot %x re-encoded as %x, want 1", slot, re[liveOff:liveOff+8])
		}
	}
}

// eventSchema is the hop path's shape with an empty string beside the key.
var eventSchema = MustSchema(
	Attribute{"user", String}, Attribute{"seq", Int}, Attribute{"empty", String}, Attribute{"ts", Timestamp},
)

// eventFrame encodes n tuples of s back to back, the i-th keyed prefix
// and i, and returns the frame and each tuple's end.
func eventFrame(t *testing.T, s *Schema, n int, prefix string) ([]byte, []int) {
	t.Helper()
	var frame []byte
	var ends []int
	for i := 0; i < n; i++ {
		tu := Build(s).Str("user", fmt.Sprintf("%s%03d", prefix, i)).Int("seq", int64(i)).
			Str("empty", "").Time("ts", time.Unix(0, int64(i))).Done()
		var err error
		if frame, err = Encode(frame, tu); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(frame))
	}
	return frame, ends
}

// decodeFrame decodes a frame into ts through one FrameDecoder.
func decodeFrame(t *testing.T, ts []Tuple, frame []byte, ends []int) {
	var dec FrameDecoder
	dec.Start(eventSchema, frame, len(ends))
	start := 0
	for k, end := range ends {
		if n, err := dec.DecodeInto(&ts[k], frame[start:end]); err != nil || n != end-start {
			t.Fatalf("tuple %d: decoded %d of %d bytes: %v", k, n, end-start, err)
		}
		start = end
	}
}

// TestFrameDecodeIsOneAllocation: however many strings a frame carries,
// its decode allocates once, for all of their bytes.
func TestFrameDecodeIsOneAllocation(t *testing.T) {
	frame, ends := eventFrame(t, eventSchema, blockTuples, "user-")
	ts := NewBlock(eventSchema, blockTuples)
	if n := testing.AllocsPerRun(100, func() { decodeFrame(t, ts, frame, ends) }); n != 1 {
		t.Fatalf("a %d-tuple frame decodes with %.1f allocations, want 1", blockTuples, n)
	}
	if got := ts[63].String("user"); got != "user-063" || ts[63].Int("seq") != 63 {
		t.Fatalf("last tuple decoded as %s", ts[63].Format())
	}
}

// TestFrameStringOutlivesItsBlock: a string read out of a decoded frame
// is the frame's, not the block's, so it reads the same after the block
// is recycled (poisoned, under the race detector), leased again and
// overwritten by another frame — and after the wire bytes are reused.
func TestFrameStringOutlivesItsBlock(t *testing.T) {
	frame, ends := eventFrame(t, eventSchema, 8, "first-")
	ts, blk := Lease(eventSchema, nil, len(ends))
	decodeFrame(t, ts, frame, ends)
	kept := ts[5].String("user")
	blk.Release()

	other, ends2 := eventFrame(t, eventSchema, 8, "other-")
	ts, blk = Lease(eventSchema, ts, len(ends2))
	decodeFrame(t, ts, other, ends2)
	clear(frame)
	blk.Release()
	if kept != "first-005" {
		t.Fatalf("kept string reads %q after its block was reused", kept)
	}
}
