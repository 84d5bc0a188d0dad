package tuple

import (
	"bytes"
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
