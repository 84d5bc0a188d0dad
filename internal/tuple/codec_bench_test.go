package tuple

import (
	"testing"
	"time"
)

// mixedSchema is the realistic hop-path shape: strings, a float, an int,
// and a timestamp (TickSchema plus a timestamp).
var mixedSchema = MustSchema(
	Attribute{"sym", String},
	Attribute{"price", Float},
	Attribute{"seq", Int},
	Attribute{"at", Timestamp},
)

func mixedTuple() Tuple {
	return Build(mixedSchema).
		Str("sym", "IBM").Float("price", 101.25).Int("seq", 12345).
		Time("at", time.Unix(0, 1345999999123456789).UTC()).Done()
}

// BenchmarkEncodeMixed measures steady-state encoding of a mixed
// int/string/timestamp tuple into a reused buffer (the transport's frame
// path); it should not allocate.
func BenchmarkEncodeMixed(b *testing.B) {
	tp := mixedTuple()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Encode(buf[:0], tp)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeInto measures steady-state decoding into a reused tuple;
// only the string attribute allocates (its bytes are copied out of the
// frame so retaining a decoded string is safe).
func BenchmarkDecodeInto(b *testing.B) {
	tp := mixedTuple()
	buf, err := Encode(nil, tp)
	if err != nil {
		b.Fatal(err)
	}
	out := New(mixedSchema)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInto(&out, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeIntoInts is DecodeInto over a fixed-width-only schema:
// the zero-allocation floor of the hop path.
func BenchmarkDecodeIntoInts(b *testing.B) {
	s := MustSchema(Attribute{"a", Int}, Attribute{"b", Int}, Attribute{"c", Float}, Attribute{"d", Timestamp})
	tp := New(s)
	_ = tp.SetInt("a", 1)
	_ = tp.SetInt("b", -99)
	_ = tp.SetFloat("c", 2.5)
	_ = tp.SetTime("d", time.Unix(0, 1345999999123456789).UTC())
	buf, err := Encode(nil, tp)
	if err != nil {
		b.Fatal(err)
	}
	out := New(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInto(&out, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecFrame is the transport's unit of work — a frame of 64
// tuples of the benchmark's five-attribute event schema (a short string
// key, an int, a float, two timestamps) encoded into one buffer and
// decoded back into reused storage through a FrameDecoder — so the
// codec's MB/s has a reading next to the code; the one allocation per
// frame holds all 64 decoded strings.
func BenchmarkCodecFrame(b *testing.B) {
	s := MustSchema(
		Attribute{"user", String}, Attribute{"seq", Int}, Attribute{"score", Float},
		Attribute{"ts", Timestamp}, Attribute{"sent", Timestamp},
	)
	in, out := NewBlock(s, 64), NewBlock(s, 64)
	at := time.Unix(0, 1345999999123456789).UTC()
	for i, tp := range in {
		_ = tp.SetString("user", "user-"+string(rune('a'+i%26)))
		_ = tp.SetInt("seq", int64(i))
		_ = tp.SetFloat("score", float64(i)/3)
		_ = tp.SetTime("ts", at)
		_ = tp.SetTime("sent", at)
	}
	buf := make([]byte, 0, 64*64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, tp := range in {
			var err error
			if buf, err = Encode(buf, tp); err != nil {
				b.Fatal(err)
			}
		}
		var dec FrameDecoder
		dec.Start(s, buf, len(out))
		off := 0
		for k := range out {
			n, err := dec.DecodeInto(&out[k], buf[off:])
			if err != nil {
				b.Fatal(err)
			}
			off += n
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkFieldRefAccess compares compiled-ref reads against the
// name-based compatibility layer on the same tuple.
func BenchmarkFieldRefAccess(b *testing.B) {
	tp := mixedTuple()
	price := mixedSchema.MustRef("price")
	seq := mixedSchema.MustRef("seq")
	sym := mixedSchema.MustRef("sym")
	b.ReportAllocs()
	var f float64
	var n int64
	var l int
	for i := 0; i < b.N; i++ {
		f += price.Float(tp)
		n += seq.Int(tp)
		l += len(sym.Str(tp))
	}
	sinkF, sinkI, sinkL = f, n, l
}

// BenchmarkNameAccess is the same reads through per-call name lookups.
func BenchmarkNameAccess(b *testing.B) {
	tp := mixedTuple()
	b.ReportAllocs()
	var f float64
	var n int64
	var l int
	for i := 0; i < b.N; i++ {
		f += tp.Float("price")
		n += tp.Int("seq")
		l += len(tp.String("sym"))
	}
	sinkF, sinkI, sinkL = f, n, l
}

var (
	sinkF float64
	sinkI int64
	sinkL int
)
