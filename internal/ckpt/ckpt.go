// Package ckpt implements operator-state checkpointing: a versioned,
// CRC-guarded binary snapshot format plus the stores snapshots persist
// into. A snapshot captures the declared state of every stateful
// operator fused into one PE, so a restarted PE can resume with its
// aggregate windows, join state, and application counters intact
// instead of rebuilding them from fresh traffic — turning the paper's
// restart actuation (§5.2, where a restarted replica rejoins with an
// empty window) into a stateful recovery primitive.
//
// # Snapshot format
//
//	magic    4 bytes  "ORCK"
//	version  1 byte   (currently 2)
//	captured varint   capture instant, unix-nanos on the platform clock
//	                  (math.MinInt64 = unknown; absent in version 1)
//	sections repeated:
//	  name    uvarint length + bytes   operator instance name
//	  kind    uvarint length + bytes   operator kind
//	  payload uvarint length + bytes   operator-encoded state
//	crc      4 bytes big-endian CRC-32C over everything before it
//
// The capture timestamp (added in version 2) lets a restarted PE
// compute its exact post-restore staleness: lastCheckpointAgeMs after a
// restore measures from the adopted snapshot's capture instant, not
// from the restore moment. Parse still reads version-1 snapshots; they
// simply carry no capture instant.
//
// Within a payload, operators write primitives through an Encoder and
// read them back through a Decoder in the same order. The encodings
// are zig-zag varints, big-endian IEEE-754 floats and length-prefixed
// strings, and snapshot assembly reuses the tuple codec's pooled
// buffers, so steady-state checkpointing of fixed-width state
// allocates only the final persisted copy. On the way back, the strings
// decoded from one section share one copy of its payload: a restore
// allocates once per section rather than once per key, and any decoded
// string still referenced keeps that whole copy alive.
//
// Malformed input never panics: Parse rejects bad magic (ErrNotSnapshot),
// unknown versions (ErrVersion), and truncated or CRC-mismatching bytes
// (ErrCorrupt); Decoder latches the first read-past-end error.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"streamorca/internal/tuple"
)

// Version is the snapshot format version this package writes. Version 2
// added the capture-timestamp header field; version-1 snapshots are
// still parsed (their capture instant reads as unknown).
const Version = 2

// unknownCapture is the captured-header sentinel for "no capture
// instant recorded", matching the tuple codec's zero-time convention.
const unknownCapture = math.MinInt64

// magic identifies a snapshot; it is deliberately not a valid tuple
// frame so a snapshot fed to the tuple codec (or vice versa) fails fast.
var magic = [4]byte{'O', 'R', 'C', 'K'}

// Snapshot parse errors, matched with errors.Is.
var (
	// ErrNotSnapshot reports input that does not start with the magic.
	ErrNotSnapshot = errors.New("ckpt: not a snapshot")
	// ErrVersion reports a snapshot written by an unknown format version.
	ErrVersion = errors.New("ckpt: unsupported snapshot version")
	// ErrCorrupt reports truncation or a CRC mismatch.
	ErrCorrupt = errors.New("ckpt: corrupt snapshot")
)

// castagnoli is the CRC-32C table used for snapshot checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer assembles one snapshot. Obtain with NewWriter, add one section
// per stateful operator, call Finish for the encoded bytes, and Close
// to recycle the internal buffer (after the store has consumed the
// bytes — stores must not retain the slice past Save).
type Writer struct {
	buf      *[]byte
	finished bool
}

// NewWriter starts a snapshot with the header written and no capture
// instant recorded. Checkpoint drivers that know when the capture
// happens should use NewWriterAt so restores can compute exact
// staleness ages.
func NewWriter() *Writer { return NewWriterAt(time.Time{}) }

// NewWriterAt starts a snapshot whose header records at as the capture
// instant (on the platform clock); the zero time records "unknown".
func NewWriterAt(at time.Time) *Writer {
	b := tuple.GetBuf()
	*b = append(*b, magic[:]...)
	*b = append(*b, Version)
	nanos := int64(unknownCapture)
	if !at.IsZero() {
		nanos = at.UnixNano()
	}
	*b = binary.AppendVarint(*b, nanos)
	return &Writer{buf: b}
}

// Section appends one operator's state: fill writes the payload through
// the Encoder, and the section is framed with the operator's instance
// name and kind so restore can match it back. An error from fill (or a
// finished writer) aborts the section and is returned unchanged.
func (w *Writer) Section(name, kind string, fill func(*Encoder) error) error {
	if w.finished {
		return fmt.Errorf("ckpt: section %q added after Finish", name)
	}
	payload := tuple.GetBuf()
	defer tuple.PutBuf(payload)
	if err := fill(&Encoder{buf: payload}); err != nil {
		return err
	}
	appendStr(w.buf, name)
	appendStr(w.buf, kind)
	*w.buf = binary.AppendUvarint(*w.buf, uint64(len(*payload)))
	*w.buf = append(*w.buf, *payload...)
	return nil
}

// Finish seals the snapshot with its CRC trailer and returns the full
// encoding. The returned slice aliases the writer's pooled buffer: it
// is valid until Close.
func (w *Writer) Finish() []byte {
	if !w.finished {
		w.finished = true
		sum := crc32.Checksum(*w.buf, castagnoli)
		*w.buf = binary.BigEndian.AppendUint32(*w.buf, sum)
	}
	return *w.buf
}

// Close recycles the writer's buffer; the slice returned by Finish must
// not be used afterwards.
func (w *Writer) Close() {
	if w.buf != nil {
		tuple.PutBuf(w.buf)
		w.buf = nil
	}
}

func appendStr(dst *[]byte, s string) {
	*dst = binary.AppendUvarint(*dst, uint64(len(s)))
	*dst = append(*dst, s...)
}

// Section is one operator's portion of a parsed snapshot.
type Section struct {
	// Name is the operator instance name the state was captured from.
	Name string
	// Kind is the operator kind, checked at restore so state never
	// flows into a different operator type under a reused name.
	Kind string

	payload []byte
}

// Decoder returns a fresh decoder positioned at the start of the
// section's payload.
func (s Section) Decoder() *Decoder { return &Decoder{data: s.payload} }

// Snapshot is a parsed, checksum-verified snapshot.
type Snapshot struct {
	sections []Section
	captured int64 // unix-nanos; unknownCapture when not recorded
}

// Sections returns the operator sections in capture order.
func (s *Snapshot) Sections() []Section { return s.sections }

// CapturedAt returns the instant the snapshot was captured at, and
// whether the snapshot recorded one (version-1 snapshots, and writers
// not given a clock, did not).
func (s *Snapshot) CapturedAt() (time.Time, bool) {
	if s.captured == unknownCapture {
		return time.Time{}, false
	}
	return time.Unix(0, s.captured), true
}

// Parse verifies and decodes a snapshot. The returned sections alias
// data; callers keeping a snapshot must keep data alive.
func Parse(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+1+crc32.Size {
		if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
			return nil, ErrNotSnapshot
		}
		return nil, fmt.Errorf("%w: %d bytes is shorter than header+trailer", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, ErrNotSnapshot
	}
	v := data[len(magic)]
	if v != 1 && v != Version {
		return nil, fmt.Errorf("%w: version %d (supported: 1-%d)", ErrVersion, v, Version)
	}
	body, trailer := data[:len(data)-crc32.Size], data[len(data)-crc32.Size:]
	if got, want := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (computed %08x, stored %08x)", ErrCorrupt, got, want)
	}
	snap := &Snapshot{captured: unknownCapture}
	rest := body[len(magic)+1:]
	if v >= 2 {
		captured, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: capture timestamp", ErrCorrupt)
		}
		snap.captured = captured
		rest = rest[n:]
	}
	for len(rest) > 0 {
		var sec Section
		var err error
		if sec.Name, rest, err = readStr(rest); err != nil {
			return nil, fmt.Errorf("%w: section name: %v", ErrCorrupt, err)
		}
		if sec.Kind, rest, err = readStr(rest); err != nil {
			return nil, fmt.Errorf("%w: section kind: %v", ErrCorrupt, err)
		}
		l, n := binary.Uvarint(rest)
		if n <= 0 || l > uint64(len(rest)-n) {
			return nil, fmt.Errorf("%w: payload length of section %q", ErrCorrupt, sec.Name)
		}
		sec.payload = rest[n : n+int(l)]
		rest = rest[n+int(l):]
		snap.sections = append(snap.sections, sec)
	}
	return snap, nil
}

func readStr(data []byte) (string, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || l > uint64(len(data)-n) {
		return "", nil, errors.New("truncated string")
	}
	return string(data[n : n+int(l)]), data[n+int(l):], nil
}

// Encoder writes an operator's state into a snapshot section. Values
// must be read back by RestoreState in the same order they were written.
type Encoder struct {
	buf *[]byte
}

// PutInt appends a signed integer (zig-zag varint).
func (e *Encoder) PutInt(v int64) { *e.buf = binary.AppendVarint(*e.buf, v) }

// PutUint appends an unsigned integer (uvarint) — use for lengths.
func (e *Encoder) PutUint(v uint64) { *e.buf = binary.AppendUvarint(*e.buf, v) }

// PutFloat appends a float64 (8 bytes IEEE-754 big endian).
func (e *Encoder) PutFloat(v float64) {
	*e.buf = binary.BigEndian.AppendUint64(*e.buf, math.Float64bits(v))
}

// PutBool appends a boolean (1 byte).
func (e *Encoder) PutBool(v bool) {
	if v {
		*e.buf = append(*e.buf, 1)
	} else {
		*e.buf = append(*e.buf, 0)
	}
}

// PutStr appends a length-prefixed string.
func (e *Encoder) PutStr(s string) { appendStr(e.buf, s) }

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	*e.buf = binary.AppendUvarint(*e.buf, uint64(len(b)))
	*e.buf = append(*e.buf, b...)
}

// PutTime appends a timestamp as varint unix-nanos; the zero time
// encodes as math.MinInt64, matching the tuple codec's convention.
func (e *Encoder) PutTime(t time.Time) {
	if t.IsZero() {
		*e.buf = binary.AppendVarint(*e.buf, math.MinInt64)
		return
	}
	*e.buf = binary.AppendVarint(*e.buf, t.UnixNano())
}

// Decoder reads an operator's state back out of a snapshot section.
// The first malformed or past-the-end read latches an error; subsequent
// reads return zero values, so RestoreState can decode a whole fixed
// layout and check Err once. Loops driven by a decoded length must
// still break on Err inside the loop, since a hostile length would
// otherwise spin on zero values.
type Decoder struct {
	data []byte
	str  string // copy of data, made by the first non-empty Str
	off  int
	err  error
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.off)
	}
}

// Int reads a signed integer.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Uint reads an unsigned integer.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Float reads a float64.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail("bool")
		return false
	}
	v := d.data[d.off] != 0
	d.off++
	return v
}

// Str reads a length-prefixed string. The first non-empty Str copies
// the whole section payload into one string, and every string read
// from the section is a substring of that copy: one allocation per
// section, not per string. A returned string never aliases the bytes
// given to Parse, but it keeps the payload copy alive while referenced.
func (d *Decoder) Str() string {
	b := d.Bytes()
	if len(b) == 0 {
		return ""
	}
	if d.str == "" {
		d.str = string(d.data)
	}
	return d.str[d.off-len(b) : d.off]
}

// Bytes reads a length-prefixed byte slice aliasing the section payload.
func (d *Decoder) Bytes() []byte {
	if d.err != nil {
		return nil
	}
	l, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 || l > uint64(d.Remaining()-n) {
		d.fail("bytes")
		return nil
	}
	d.off += n
	b := d.data[d.off : d.off+int(l)]
	d.off += int(l)
	return b
}

// Time reads a timestamp written by PutTime.
func (d *Decoder) Time() time.Time {
	v := d.Int()
	if d.err != nil || v == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, v)
}
