// Package tuple defines the data items flowing through stream connections:
// typed schemas, tuples, punctuation marks, and a binary codec used by the
// inter-PE transport (which is also where the platform's byte-count metrics
// come from).
//
// # Columnar storage layout
//
// Tuples are unboxed: a Schema compiles, at construction time, every
// attribute to a fixed slot in one of two typed arrays:
//
//	nums []int64   Int (value), Float (IEEE-754 bits), Bool (0/1),
//	               Timestamp (unix-nanos; math.MinInt64 = the zero time)
//	strs []string  String
//
// A Tuple is a 32-byte header: the schema pointer, one pointer to the
// first slot of each array, and its Block. The slot counts live in the
// schema; an access rebuilds the array from the pointer and that count,
// so every index is still bounds-checked. Headers are what every queue
// on a hop copies, so their size is paid per tuple per step.
//
// No attribute value is ever stored behind an interface, so building,
// copying, encoding, and decoding a tuple of fixed-width attributes does
// not allocate per attribute. Timestamps carry nanosecond precision over
// the unix-nano range (years 1678–2262); the zero time round-trips exactly
// via the sentinel.
//
// # FieldRef resolution contract
//
// Name-based accessors (Int, SetFloat, ...) look the attribute up by name
// on every call and re-check its type; they are the compatibility layer.
// Hot paths resolve a FieldRef once at setup time — Schema.Ref /
// Schema.TypedRef validate the name and type at resolution — and then use
// the ref's unchecked accessors per tuple. A FieldRef is only meaningful
// for tuples of the schema that resolved it; using it with another schema,
// or using an accessor of the wrong type class, is a programming error
// (the accessors perform no per-call checks, that is the point).
package tuple

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"
)

// Type enumerates attribute types supported by the platform.
type Type uint8

// Supported attribute types.
const (
	Int Type = iota + 1
	Float
	String
	Bool
	Timestamp
)

// String returns the SPL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "int64"
	case Float:
		return "float64"
	case String:
		return "rstring"
	case Bool:
		return "boolean"
	case Timestamp:
		return "timestamp"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

func (t Type) valid() bool { return t >= Int && t <= Timestamp }

// Attribute is a named, typed slot in a schema.
type Attribute struct {
	Name string `json:"name"`
	Type Type   `json:"type"`
}

// zeroTimeNanos is the nums-slot sentinel for the zero time.Time, which
// has no meaningful unix-nano representation.
const zeroTimeNanos = math.MinInt64

// Schema is an ordered set of uniquely named attributes. Construction
// compiles each attribute to a slot offset in the tuple's typed storage
// (see the package comment), so per-tuple access never re-derives layout.
// Schemas are immutable after construction and safe to share between
// goroutines.
type Schema struct {
	attrs []Attribute
	index map[string]int
	slot  []int // per attribute: offset into nums or strs
	nNums int
	nStrs int
	// tsSlots lists the nums offsets holding timestamps, so New can plant
	// the zero-time sentinel without rescanning the attribute list.
	tsSlots []int
	// boolSlots lists the nums offsets holding bools, which DecodeInto
	// normalises to 0/1 after its fixed-width loads.
	boolSlots []int
	// blocks recycles the schema's leased Blocks (see Lease).
	blocks sync.Pool
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique, non-empty, and every type must be valid.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{
		attrs: append([]Attribute(nil), attrs...),
		index: make(map[string]int, len(attrs)),
		slot:  make([]int, len(attrs)),
	}
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("tuple: attribute %d has an empty name", i)
		}
		if !a.Type.valid() {
			return nil, fmt.Errorf("tuple: attribute %q has invalid type %d", a.Name, a.Type)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("tuple: duplicate attribute name %q", a.Name)
		}
		s.index[a.Name] = i
		switch a.Type {
		case String:
			s.slot[i] = s.nStrs
			s.nStrs++
		default: // Int, Float, Bool, Timestamp
			s.slot[i] = s.nNums
			switch a.Type {
			case Timestamp:
				s.tsSlots = append(s.tsSlots, s.nNums)
			case Bool:
				s.boolSlots = append(s.boolSlots, s.nNums)
			}
			s.nNums++
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for statically
// known schemas in application builders and tests.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Equal reports whether two schemas have identical attribute sequences.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "<int64 id, rstring text>".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", a.Type, a.Name)
	}
	b.WriteByte('>')
	return b.String()
}

// FieldRef is a compiled reference to one attribute of one schema: the
// result of resolving an attribute name (and checking its type) once at
// setup time. Its accessors index straight into the tuple's typed storage
// with no name lookup and no per-call type check — see the package comment
// for the resolution contract. The zero FieldRef is invalid.
type FieldRef struct {
	slot int
	typ  Type
}

// Ref resolves the named attribute to a FieldRef carrying its type, or an
// error when the schema has no such attribute.
func (s *Schema) Ref(name string) (FieldRef, error) {
	i := s.Index(name)
	if i < 0 {
		return FieldRef{}, fmt.Errorf("tuple: no attribute %q in %s", name, s)
	}
	return FieldRef{slot: s.slot[i], typ: s.attrs[i].Type}, nil
}

// TypedRef resolves the named attribute and verifies it has the wanted
// type, so the ref's unchecked accessors of that type class are safe.
func (s *Schema) TypedRef(name string, want Type) (FieldRef, error) {
	i := s.Index(name)
	if i < 0 {
		return FieldRef{}, fmt.Errorf("tuple: no attribute %q in %s", name, s)
	}
	if got := s.attrs[i].Type; got != want {
		return FieldRef{}, fmt.Errorf("tuple: attribute %q is %s, not %s", name, got, want)
	}
	return FieldRef{slot: s.slot[i], typ: want}, nil
}

// MustRef is Ref that panics on error; for statically known attributes.
func (s *Schema) MustRef(name string) FieldRef {
	r, err := s.Ref(name)
	if err != nil {
		panic(err)
	}
	return r
}

// Valid reports whether the ref was resolved (the zero FieldRef is not).
func (r FieldRef) Valid() bool { return r.typ.valid() }

// Type returns the referenced attribute's type.
func (r FieldRef) Type() Type { return r.typ }

// Int reads the referenced int64 attribute.
func (r FieldRef) Int(t Tuple) int64 { return t.nums()[r.slot] }

// Float reads the referenced float64 attribute.
func (r FieldRef) Float(t Tuple) float64 { return math.Float64frombits(uint64(t.nums()[r.slot])) }

// Str reads the referenced string attribute.
func (r FieldRef) Str(t Tuple) string { return t.strs()[r.slot] }

// Bool reads the referenced bool attribute.
func (r FieldRef) Bool(t Tuple) bool { return t.nums()[r.slot] != 0 }

// Time reads the referenced timestamp attribute.
func (r FieldRef) Time(t Tuple) time.Time { return timeFromNanos(t.nums()[r.slot]) }

// SetInt stores an int64 through the ref.
func (r FieldRef) SetInt(t Tuple, v int64) { t.nums()[r.slot] = v }

// SetFloat stores a float64 through the ref.
func (r FieldRef) SetFloat(t Tuple, v float64) { t.nums()[r.slot] = int64(math.Float64bits(v)) }

// SetStr stores a string through the ref.
func (r FieldRef) SetStr(t Tuple, v string) { t.strs()[r.slot] = v }

// SetBool stores a bool through the ref.
func (r FieldRef) SetBool(t Tuple, v bool) {
	if v {
		t.nums()[r.slot] = 1
	} else {
		t.nums()[r.slot] = 0
	}
}

// SetTime stores a timestamp through the ref.
func (r FieldRef) SetTime(t Tuple, v time.Time) { t.nums()[r.slot] = nanosFromTime(v) }

func timeFromNanos(n int64) time.Time {
	if n == zeroTimeNanos {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

func nanosFromTime(v time.Time) int64 {
	if v.IsZero() {
		return zeroTimeNanos
	}
	return v.UnixNano()
}

// Tuple is a single data item conforming to a schema, stored unboxed in
// two typed arrays (see the package comment). The zero Tuple is invalid;
// construct with New. Tuples are not safe for concurrent mutation; Clone
// before sharing. A tuple decoded from a transport frame, or produced by
// a batch operator, is carved from a leased Block (see Lease): it is
// valid while whoever handed it over holds the block — for an operator,
// the Process or ProcessBatch call — and is overwritten when the frame's
// block is reused: Clone to keep one. Values read out of it stay good.
//
// The header holds a pointer to each array's first slot, not a slice, so
// reflect.DeepEqual on two tuples compares only their first slots:
// compare through the accessors or Format.
type Tuple struct {
	schema *Schema
	np     *int64  // nums slot 0, nil when the schema has no numeric slot
	sp     *string // strs slot 0, nil when the schema has no string slot
	blk    *Block  // the leased block the storage is carved from; nil: the GC's
}

// nums returns the tuple's numeric slots, nil for an invalid tuple. The
// schema's count is length and capacity; the array size is only a ceiling
// (unsafe.Slice would add a multiply and two overflow checks per access).
func (t Tuple) nums() []int64 {
	if t.np == nil {
		return nil
	}
	n := t.schema.nNums
	return (*[1 << 27]int64)(unsafe.Pointer(t.np))[:n:n]
}

// strs returns the tuple's string slots, nil for an invalid tuple.
func (t Tuple) strs() []string {
	if t.sp == nil {
		return nil
	}
	n := t.schema.nStrs
	return (*[1 << 26]string)(unsafe.Pointer(t.sp))[:n:n]
}

// first points at a slot array's first element, nil for an empty one.
func first[E any](s []E) *E {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// New returns a zero-valued tuple of the given schema.
func New(s *Schema) Tuple {
	var t [1]Tuple
	carve(t[:], s, make([]int64, s.nNums), make([]string, s.nStrs), nil)
	return t[0]
}

// NewBlock returns count zero-valued tuples of the schema sharing one
// backing allocation per typed array, so per-tuple storage costs amortise
// to near zero. The tuples are independent (non-overlapping slots) and,
// like those of New and Clone, carry no Block: the storage is the garbage
// collector's and is never reused under a holder. Lease recycles.
func NewBlock(s *Schema, count int) []Tuple {
	if count <= 0 {
		return nil
	}
	ts := make([]Tuple, count)
	carve(ts, s, make([]int64, count*s.nNums), make([]string, count*s.nStrs), nil)
	return ts
}

// carve points ts[i] at the i-th tuple's slots of the typed arrays, which
// must be zeroed, and plants the zero-time sentinels.
func carve(ts []Tuple, s *Schema, nums []int64, strs []string, b *Block) {
	for i := range ts {
		ts[i] = Tuple{schema: s, np: first(nums[i*s.nNums:]), sp: first(strs[i*s.nStrs:]), blk: b}
		for _, k := range s.tsSlots {
			nums[i*s.nNums+k] = zeroTimeNanos
		}
	}
}

// Schema returns the tuple's schema.
func (t Tuple) Schema() *Schema { return t.schema }

// Block returns the leased block the tuple's storage belongs to, nil for
// a tuple of New, NewBlock or Clone.
func (t Tuple) Block() *Block { return t.blk }

// Valid reports whether the tuple was properly constructed.
func (t Tuple) Valid() bool { return t.schema != nil }

// Clone returns an independent copy of the tuple, in storage of its own
// that no block reuse touches.
func (t Tuple) Clone() Tuple {
	return Tuple{schema: t.schema, np: first(slices.Clone(t.nums())), sp: first(slices.Clone(t.strs()))}
}

// Projection moves the attributes two schemas share — same name, same
// type — from a tuple of one into a tuple of the other, slot to slot. A
// numeric attribute is one raw int64 move whatever its type, exact for an
// Int, a Float's bits, a Bool's 0/1 and a Timestamp's nanos or zero-time
// sentinel; a string is one string header move. Schema.ProjectTo compiles
// it once, so Apply looks nothing up and switches on no type.
type Projection struct {
	nums, strs []slotMove
}

type slotMove struct{ from, to int }

// ProjectTo compiles the projection of s's tuples onto out's.
func (s *Schema) ProjectTo(out *Schema) Projection {
	var p Projection
	for i, a := range s.attrs {
		j := out.Index(a.Name)
		if j < 0 || out.attrs[j].Type != a.Type {
			continue
		}
		m := slotMove{from: s.slot[i], to: out.slot[j]}
		if a.Type == String {
			p.strs = append(p.strs, m)
		} else {
			p.nums = append(p.nums, m)
		}
	}
	return p
}

// Apply moves the projected attributes of src, a tuple of the schema that
// compiled p, into dst, a tuple of the schema it was compiled onto.
func (p *Projection) Apply(dst, src Tuple) {
	dn, sn := dst.nums(), src.nums()
	for _, m := range p.nums {
		dn[m.to] = sn[m.from]
	}
	ds, ss := dst.strs(), src.strs()
	for _, m := range p.strs {
		ds[m.to] = ss[m.from]
	}
}

// slotOf resolves a name to its storage slot, enforcing the wanted type;
// the error-reporting core of the name-based compatibility layer.
func (t Tuple) slotOf(name string, want Type) (int, error) {
	i := t.schema.Index(name)
	if i < 0 {
		return -1, fmt.Errorf("tuple: no attribute %q in %s", name, t.schema)
	}
	if got := t.schema.attrs[i].Type; got != want {
		return -1, fmt.Errorf("tuple: attribute %q is %s, not %s", name, got, want)
	}
	return t.schema.slot[i], nil
}

// SetInt stores an int64 attribute.
func (t Tuple) SetInt(name string, v int64) error {
	k, err := t.slotOf(name, Int)
	if err != nil {
		return err
	}
	t.nums()[k] = v
	return nil
}

// SetFloat stores a float64 attribute.
func (t Tuple) SetFloat(name string, v float64) error {
	k, err := t.slotOf(name, Float)
	if err != nil {
		return err
	}
	t.nums()[k] = int64(math.Float64bits(v))
	return nil
}

// SetString stores a string attribute.
func (t Tuple) SetString(name, v string) error {
	k, err := t.slotOf(name, String)
	if err != nil {
		return err
	}
	t.strs()[k] = v
	return nil
}

// SetBool stores a bool attribute.
func (t Tuple) SetBool(name string, v bool) error {
	k, err := t.slotOf(name, Bool)
	if err != nil {
		return err
	}
	if v {
		t.nums()[k] = 1
	} else {
		t.nums()[k] = 0
	}
	return nil
}

// SetTime stores a timestamp attribute.
func (t Tuple) SetTime(name string, v time.Time) error {
	k, err := t.slotOf(name, Timestamp)
	if err != nil {
		return err
	}
	t.nums()[k] = nanosFromTime(v)
	return nil
}

// Int reads an int64 attribute, returning 0 if missing or mistyped.
func (t Tuple) Int(name string) int64 {
	if k, err := t.slotOf(name, Int); err == nil {
		return t.nums()[k]
	}
	return 0
}

// Float reads a float64 attribute, returning 0 if missing or mistyped.
func (t Tuple) Float(name string) float64 {
	if k, err := t.slotOf(name, Float); err == nil {
		return math.Float64frombits(uint64(t.nums()[k]))
	}
	return 0
}

// String reads a string attribute, returning "" if missing or mistyped.
func (t Tuple) String(name string) string {
	if k, err := t.slotOf(name, String); err == nil {
		return t.strs()[k]
	}
	return ""
}

// Bool reads a bool attribute, returning false if missing or mistyped.
func (t Tuple) Bool(name string) bool {
	if k, err := t.slotOf(name, Bool); err == nil {
		return t.nums()[k] != 0
	}
	return false
}

// Time reads a timestamp attribute, returning the zero time if missing or
// mistyped.
func (t Tuple) Time(name string) time.Time {
	if k, err := t.slotOf(name, Timestamp); err == nil {
		return timeFromNanos(t.nums()[k])
	}
	return time.Time{}
}

// Format renders the tuple for logs and sinks as {a=1, b="x"}.
func (t Tuple) Format() string {
	if !t.Valid() {
		return "{invalid}"
	}
	nums, strs := t.nums(), t.strs()
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range t.schema.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		k := t.schema.slot[i]
		switch a.Type {
		case Int:
			fmt.Fprintf(&b, "%s=%d", a.Name, nums[k])
		case Float:
			fmt.Fprintf(&b, "%s=%v", a.Name, math.Float64frombits(uint64(nums[k])))
		case String:
			fmt.Fprintf(&b, "%s=%q", a.Name, strs[k])
		case Bool:
			fmt.Fprintf(&b, "%s=%v", a.Name, nums[k] != 0)
		case Timestamp:
			fmt.Fprintf(&b, "%s=%s", a.Name, timeFromNanos(nums[k]).UTC().Format(time.RFC3339Nano))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Builder provides chained tuple construction:
//
//	t := tuple.Build(schema).Int("id", 7).Str("text", "hi").Done()
type Builder struct {
	t   Tuple
	err error
}

// Build starts a builder for schema s.
func Build(s *Schema) *Builder { return &Builder{t: New(s)} }

// Int sets an int64 attribute.
func (b *Builder) Int(name string, v int64) *Builder {
	if b.err == nil {
		b.err = b.t.SetInt(name, v)
	}
	return b
}

// Float sets a float64 attribute.
func (b *Builder) Float(name string, v float64) *Builder {
	if b.err == nil {
		b.err = b.t.SetFloat(name, v)
	}
	return b
}

// Str sets a string attribute.
func (b *Builder) Str(name, v string) *Builder {
	if b.err == nil {
		b.err = b.t.SetString(name, v)
	}
	return b
}

// Bool sets a bool attribute.
func (b *Builder) Bool(name string, v bool) *Builder {
	if b.err == nil {
		b.err = b.t.SetBool(name, v)
	}
	return b
}

// Time sets a timestamp attribute.
func (b *Builder) Time(name string, v time.Time) *Builder {
	if b.err == nil {
		b.err = b.t.SetTime(name, v)
	}
	return b
}

// Done returns the built tuple, panicking if any set failed. Builders are
// used with statically known schemas where a mismatch is a programming
// error.
func (b *Builder) Done() Tuple {
	if b.err != nil {
		panic(b.err)
	}
	return b.t
}

// Mark is a punctuation delivered in-band on a stream.
type Mark uint8

// Punctuation kinds. FinalMark indicates the producing port will never emit
// another tuple; its propagation is managed by the PE runtime and surfaces
// as the nFinalPunctsQueued built-in metric on sink ports.
const (
	NoMark Mark = iota
	WindowMark
	FinalMark
)

// String names the mark.
func (m Mark) String() string {
	switch m {
	case NoMark:
		return "none"
	case WindowMark:
		return "window"
	case FinalMark:
		return "final"
	default:
		return fmt.Sprintf("Mark(%d)", uint8(m))
	}
}
