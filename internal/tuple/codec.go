package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
)

// Codec errors are wrapped with this prefix so transport code can log a
// recognisable failure source.
const codecPrefix = "tuple codec"

// ErrTruncated is the typed cause of every decode failure on short,
// overlong, or otherwise malformed input; transports match it with
// errors.Is instead of parsing error strings.
var ErrTruncated = errors.New(codecPrefix + ": truncated or malformed input")

// bufPool recycles encode buffers so steady-state framing on the hop path
// allocates nothing.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetBuf returns a pooled encode buffer (length 0) behind a stable
// pointer; write appends back through the pointer and return it with
// PutBuf when the frame has been consumed. The pointer indirection keeps
// the get/put cycle itself allocation-free.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// maxPooledBuf bounds what PutBuf keeps: truly pathological buffers (a
// multi-megabyte string attribute) must not permanently inflate the
// pool. The bound is grow-and-keep sized for the largest steady-state
// producer — checkpoint snapshots of big group windows run to ~100 KB
// per capture (BenchmarkCheckpointEncode g10_s600) and must reuse their
// grown buffer instead of falling out of the fast path and reallocating
// on every capture, which a hop-frame-sized bound made them do.
const maxPooledBuf = 1 << 20

// PutBuf returns a buffer obtained from GetBuf (possibly regrown by
// appends) to the pool; oversized outliers are dropped for the GC.
func PutBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// Encode appends the binary representation of t to dst and returns the
// extended slice. The layout is schema-relative: the receiver must know the
// schema (both ends of a stream connection share the compiled schema, as in
// System S where the ADL fixes port schemas at compile time).
//
// Wire format — the tuple's storage, slot by slot (see the package comment):
//
//	nums slots  8 bytes little endian each, in slot order: Int value,
//	            Float IEEE-754 bits, Bool 0/1, Timestamp unix-nanos
//	            (math.MinInt64 encodes the zero time)
//	strs slots  uvarint length + bytes each, in slot order
//
// Slot order, not attribute order, is what lets both directions run as one
// loop of fixed-width moves and one of strings with no schema walk and no
// per-attribute type switch; the schema compiles attribute → slot once, so
// the two orders carry the same information. The price is bytes: a numeric
// attribute is always 8 on the wire, so a Bool costs 8 where a byte would
// do and a small Int 8 where a varint took 1–2 (a Timestamp's varint was
// already 9–10). The byte order is fixed by encoding/binary, not by the
// host, so the format is portable.
func Encode(dst []byte, t Tuple) ([]byte, error) {
	if !t.Valid() {
		return dst, fmt.Errorf("%s: encoding invalid tuple", codecPrefix)
	}
	for _, v := range t.nums() {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, s := range t.strs() {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// EncodedSize returns the number of bytes Encode would produce for t. The
// transport uses it for the nTupleBytesSubmitted/Processed built-in metrics
// without forcing an extra copy.
func EncodedSize(t Tuple) int {
	if !t.Valid() {
		return 0
	}
	n := 8 * len(t.nums())
	for _, s := range t.strs() {
		// A uvarint carries 7 bits per byte; the zero length takes one.
		n += (bits.Len64(uint64(len(s))|1)+6)/7 + len(s)
	}
	return n
}

// DecodeInto parses one tuple of t's schema from data into t's existing
// storage, returning the number of bytes consumed. The tuple keeps its
// storage across calls, so decoding fixed-width attributes allocates
// nothing; string attributes copy their bytes out of data (one allocation
// per string), which is what makes retaining a decoded string safe. A Bool
// slot holding any non-zero wire value decodes to true, stored as 1.
// FrameDecoder is the same decode for the tuples of one frame, with one
// allocation for all of the frame's strings: a string it decodes is as
// safe to keep, and keeps the frame's string bytes alive while kept.
//
// All malformed-input failures wrap ErrTruncated; passing an invalid
// tuple is a programming error reported separately. On error the tuple's
// contents are unspecified but its storage is intact for the next call.
func DecodeInto(t *Tuple, data []byte) (int, error) {
	return decode(t, data, nil)
}

// FrameDecoder decodes the tuples of one frame — the back-to-back
// encodings of several tuples of one schema, the transport's unit — with
// all of the frame's string bytes in one allocation: each decoded string
// is a substring of it. The zero value is ready for Start.
type FrameDecoder struct {
	arena strings.Builder
}

// Start readies d for a frame of n tuples of s, allocating the frame's
// string arena. Its size is bounded from the frame alone, with no pass
// over it: every tuple spends 8 bytes per numeric slot and at least one
// length byte per string on things that are not string bytes.
func (d *FrameDecoder) Start(s *Schema, frame []byte, n int) {
	d.arena.Reset()
	if s.nStrs > 0 {
		d.arena.Grow(max(len(frame)-n*(8*s.nNums+s.nStrs), 0))
	}
}

// DecodeInto is DecodeInto for one of the frame's tuples, whose bytes
// lie within the frame Start was given: that is what bounds the arena.
func (d *FrameDecoder) DecodeInto(t *Tuple, data []byte) (int, error) {
	return decode(t, data, &d.arena)
}

// decode is the one decode loop of DecodeInto and FrameDecoder: a string
// is its own allocation when arena is nil, a substring of arena otherwise.
func decode(t *Tuple, data []byte, arena *strings.Builder) (int, error) {
	if !t.Valid() {
		// A caller-side programming error, not malformed wire input: do
		// not classify it as ErrTruncated.
		return 0, fmt.Errorf("%s: decode into invalid tuple", codecPrefix)
	}
	nums, strs := t.nums(), t.strs()
	off := 8 * len(nums)
	if len(data) < off {
		return 0, fmt.Errorf("%w: %d bytes for %d numeric slots", ErrTruncated, len(data), len(nums))
	}
	for i := range nums {
		nums[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	for _, k := range t.schema.boolSlots {
		if nums[k] != 0 {
			nums[k] = 1
		}
	}
	for i := range strs {
		l, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: length of string slot %d", ErrTruncated, i)
		}
		// Reject lengths that cannot index a slice before converting,
		// so a hostile length never wraps around or over-slices.
		if l > uint64(math.MaxInt) || uint64(len(data)-off-n) < l {
			return 0, fmt.Errorf("%w: string slot %d of %d bytes exceeds input", ErrTruncated, i, l)
		}
		off += n
		b := data[off : off+int(l)]
		if arena == nil || len(b) == 0 {
			strs[i] = string(b)
		} else {
			// Written bytes never change, so earlier substrings stay
			// good; only a malformed frame can outgrow the bound, at
			// the price of a second allocation.
			at := arena.Len()
			arena.Write(b)
			strs[i] = arena.String()[at:]
		}
		off += int(l)
	}
	return off, nil
}
