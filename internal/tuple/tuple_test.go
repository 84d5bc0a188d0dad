package tuple

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Attribute{"id", Int},
		Attribute{"price", Float},
		Attribute{"sym", String},
		Attribute{"live", Bool},
		Attribute{"at", Timestamp},
	)
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	if _, err := NewSchema(Attribute{"a", Int}, Attribute{"a", Float}); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
}

func TestNewSchemaRejectsEmptyName(t *testing.T) {
	if _, err := NewSchema(Attribute{"", Int}); err == nil {
		t.Fatal("empty attribute name accepted")
	}
}

func TestNewSchemaRejectsInvalidType(t *testing.T) {
	if _, err := NewSchema(Attribute{"a", Type(99)}); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestSchemaIndexAndAttr(t *testing.T) {
	s := testSchema(t)
	if s.NumAttrs() != 5 {
		t.Fatalf("NumAttrs = %d", s.NumAttrs())
	}
	if i := s.Index("sym"); i != 2 {
		t.Fatalf("Index(sym) = %d", i)
	}
	if i := s.Index("nope"); i != -1 {
		t.Fatalf("Index(nope) = %d", i)
	}
	if a := s.Attr(0); a.Name != "id" || a.Type != Int {
		t.Fatalf("Attr(0) = %+v", a)
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema(t)
	b := testSchema(t)
	if !a.Equal(b) {
		t.Fatal("identical schemas not equal")
	}
	c := MustSchema(Attribute{"id", Int})
	if a.Equal(c) {
		t.Fatal("different schemas equal")
	}
	if a.Equal(nil) {
		t.Fatal("schema equal to nil")
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema(Attribute{"id", Int}, Attribute{"text", String})
	want := "<int64 id, rstring text>"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestTupleZeroValues(t *testing.T) {
	tp := New(testSchema(t))
	if tp.Int("id") != 0 || tp.Float("price") != 0 || tp.String("sym") != "" || tp.Bool("live") || !tp.Time("at").IsZero() {
		t.Fatalf("non-zero defaults: %s", tp.Format())
	}
}

func TestTupleSetGetRoundTrip(t *testing.T) {
	tp := New(testSchema(t))
	at := time.Date(2012, 8, 27, 10, 0, 0, 0, time.UTC)
	if err := tp.SetInt("id", 42); err != nil {
		t.Fatal(err)
	}
	if err := tp.SetFloat("price", 99.5); err != nil {
		t.Fatal(err)
	}
	if err := tp.SetString("sym", "IBM"); err != nil {
		t.Fatal(err)
	}
	if err := tp.SetBool("live", true); err != nil {
		t.Fatal(err)
	}
	if err := tp.SetTime("at", at); err != nil {
		t.Fatal(err)
	}
	if tp.Int("id") != 42 || tp.Float("price") != 99.5 || tp.String("sym") != "IBM" || !tp.Bool("live") || !tp.Time("at").Equal(at) {
		t.Fatalf("round trip failed: %s", tp.Format())
	}
}

func TestTupleTypeMismatchErrors(t *testing.T) {
	tp := New(testSchema(t))
	if err := tp.SetInt("price", 1); err == nil {
		t.Fatal("SetInt on float attribute succeeded")
	}
	if err := tp.SetString("id", "x"); err == nil {
		t.Fatal("SetString on int attribute succeeded")
	}
	if err := tp.SetBool("nope", true); err == nil {
		t.Fatal("Set on missing attribute succeeded")
	}
}

func TestTupleGettersTolerateMismatch(t *testing.T) {
	tp := New(testSchema(t))
	if tp.Int("price") != 0 || tp.String("id") != "" || tp.Float("nope") != 0 {
		t.Fatal("mistyped getters did not return zero values")
	}
}

func TestTupleClone(t *testing.T) {
	tp := Build(testSchema(t)).Int("id", 1).Done()
	cl := tp.Clone()
	if err := cl.SetInt("id", 2); err != nil {
		t.Fatal(err)
	}
	if tp.Int("id") != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestBuilderPanicsOnBadAttr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Done() did not panic on builder error")
		}
	}()
	Build(testSchema(t)).Int("missing", 1).Done()
}

func TestTupleFormat(t *testing.T) {
	tp := Build(MustSchema(Attribute{"id", Int}, Attribute{"s", String})).
		Int("id", 7).Str("s", "hi").Done()
	got := tp.Format()
	if !strings.Contains(got, "id=7") || !strings.Contains(got, `s="hi"`) {
		t.Fatalf("Format() = %q", got)
	}
	var invalid Tuple
	if invalid.Format() != "{invalid}" {
		t.Fatalf("invalid Format() = %q", invalid.Format())
	}
}

func TestMarkString(t *testing.T) {
	for m, want := range map[Mark]string{NoMark: "none", WindowMark: "window", FinalMark: "final"} {
		if m.String() != want {
			t.Fatalf("Mark(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema(t)
	tp := Build(s).
		Int("id", -123456789).
		Float("price", 3.14159).
		Str("sym", "hello world").
		Bool("live", true).
		Time("at", time.Unix(0, 1345999999123456789).UTC()).
		Done()
	buf, err := Encode(nil, tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != EncodedSize(tp) {
		t.Fatalf("EncodedSize = %d, len(Encode) = %d", EncodedSize(tp), len(buf))
	}
	got := New(s)
	n, err := DecodeInto(&got, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("DecodeInto consumed %d of %d bytes", n, len(buf))
	}
	if got.Int("id") != tp.Int("id") || got.Float("price") != tp.Float("price") ||
		got.String("sym") != tp.String("sym") || got.Bool("live") != tp.Bool("live") ||
		!got.Time("at").Equal(tp.Time("at")) {
		t.Fatalf("round trip mismatch: %s vs %s", got.Format(), tp.Format())
	}
}

// TestDecodeTruncated: every strict prefix of a valid encoding fails with
// ErrTruncated. The prefix is capacity-clipped, so a read past it panics.
func TestDecodeTruncated(t *testing.T) {
	for _, tp := range []Tuple{New(testSchema(t)), goldenTuple()} {
		buf, err := Encode(nil, tp)
		if err != nil {
			t.Fatal(err)
		}
		got := New(tp.Schema())
		for cut := 0; cut < len(buf); cut++ {
			if _, err := DecodeInto(&got, buf[:cut:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("DecodeInto of %d/%d bytes = %v, want ErrTruncated", cut, len(buf), err)
			}
		}
	}
}

func TestEncodeInvalidTuple(t *testing.T) {
	var invalid Tuple
	if _, err := Encode(nil, invalid); err == nil {
		t.Fatal("Encode(invalid) succeeded")
	}
	if EncodedSize(invalid) != 0 {
		t.Fatal("EncodedSize(invalid) != 0")
	}
}

// TestCodecPropertyRoundTrip drives random values through the codec.
func TestCodecPropertyRoundTrip(t *testing.T) {
	s := MustSchema(
		Attribute{"i", Int},
		Attribute{"f", Float},
		Attribute{"s", String},
		Attribute{"b", Bool},
	)
	f := func(i int64, fl float64, str string, b bool) bool {
		tp := New(s)
		_ = tp.SetInt("i", i)
		_ = tp.SetFloat("f", fl)
		_ = tp.SetString("s", str)
		_ = tp.SetBool("b", b)
		buf, err := Encode(nil, tp)
		if err != nil {
			return false
		}
		if len(buf) != EncodedSize(tp) {
			return false
		}
		got := New(s)
		if n, err := DecodeInto(&got, buf); err != nil || n != len(buf) {
			return false
		}
		// NaN compares unequal to itself; encode bits instead.
		ff := got.Float("f") == fl || (fl != fl && got.Float("f") != got.Float("f"))
		return got.Int("i") == i && ff && got.String("s") == str && got.Bool("b") == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	s := MustSchema(Attribute{"id", Int}, Attribute{"price", Float}, Attribute{"sym", String})
	tp := Build(s).Int("id", 12345).Float("price", 101.25).Str("sym", "IBM").Done()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = Encode(buf, tp)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	s := MustSchema(Attribute{"id", Int}, Attribute{"price", Float}, Attribute{"sym", String})
	tp := Build(s).Int("id", 12345).Float("price", 101.25).Str("sym", "IBM").Done()
	buf, err := Encode(nil, tp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := New(s) // fresh storage per tuple: what DecodeInto's reuse saves
		if _, err := DecodeInto(&out, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTupleHeaderIs32Bytes pins the header: the schema, one pointer per
// slot array and the block. Every carrier on a hop copies it per tuple
// (ARCHITECTURE.md, "Tuple storage ownership", counts the bytes).
func TestTupleHeaderIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Tuple{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Tuple{}) = %d, want 32", n)
	}
}

// TestFieldRefOnNarrowerSchemaPanics: a ref resolved on a wider schema
// indexes past a narrower tuple's slot count, which the schema's count
// bounds-checks instead of reading a neighbour's slots.
func TestFieldRefOnNarrowerSchemaPanics(t *testing.T) {
	wide := MustSchema(Attribute{"a", Int}, Attribute{"b", Int}, Attribute{"x", String}, Attribute{"y", String})
	narrow := MustSchema(Attribute{"a", Int}, Attribute{"x", String})
	b, y := wide.MustRef("b"), wide.MustRef("y")
	// Neighbours on both sides of the narrow tuple, so an unchecked
	// read would land in a live slot rather than fault.
	ts := NewBlock(narrow, 3)
	tu := ts[1]
	mustPanic(t, "Int", func() { b.Int(tu) })
	mustPanic(t, "SetInt", func() { b.SetInt(tu, 1) })
	mustPanic(t, "Str", func() { y.Str(tu) })
	mustPanic(t, "SetStr", func() { y.SetStr(tu, "z") })
	for i, o := range ts {
		if o.Int("a") != 0 || o.String("x") != "" {
			t.Fatalf("tuple %d written through a foreign ref: %s", i, o.Format())
		}
	}
}

// TestDegenerateSchemasRoundTrip: schemas with no attributes, only
// numbers or only strings build, copy, lease, encode, decode and format
// with a nil pointer for each empty slot array.
func TestDegenerateSchemasRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name   string
		s      *Schema
		set    func(Tuple)
		format string
	}{
		{"empty", MustSchema(), func(Tuple) {}, "{}"},
		{"nums only", MustSchema(Attribute{"n", Int}, Attribute{"ok", Bool}),
			func(tu Tuple) { _ = tu.SetInt("n", -3); _ = tu.SetBool("ok", true) }, "{n=-3, ok=true}"},
		{"strs only", MustSchema(Attribute{"a", String}, Attribute{"b", String}),
			func(tu Tuple) { _ = tu.SetString("a", "hi") }, `{a="hi", b=""}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			leased, blk := Lease(c.s, nil, 2)
			defer blk.Release()
			for i, tu := range []Tuple{New(c.s), NewBlock(c.s, 2)[1], leased[1], New(c.s).Clone()} {
				if (tu.np == nil) != (c.s.nNums == 0) || (tu.sp == nil) != (c.s.nStrs == 0) {
					t.Fatalf("tuple %d: np %p, sp %p for %d nums, %d strs", i, tu.np, tu.sp, c.s.nNums, c.s.nStrs)
				}
				c.set(tu)
				wire, err := Encode(nil, tu)
				if err != nil || len(wire) != EncodedSize(tu) {
					t.Fatalf("tuple %d: Encode = %d bytes, %v; EncodedSize %d", i, len(wire), err, EncodedSize(tu))
				}
				back := New(c.s)
				if n, err := DecodeInto(&back, wire); err != nil || n != len(wire) {
					t.Fatalf("tuple %d: DecodeInto = %d, %v", i, n, err)
				}
				if got := back.Clone().Format(); got != c.format || tu.Format() != c.format {
					t.Fatalf("tuple %d: Format = %q, round trip %q; want %q", i, tu.Format(), got, c.format)
				}
			}
		})
	}
}
