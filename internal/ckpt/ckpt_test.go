package ckpt

import (
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"
	"time"
)

// buildSnapshot writes a two-section snapshot exercising every encoder
// primitive and returns an independent copy of the encoding.
func buildSnapshot(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	defer w.Close()
	err := w.Section("agg", "Aggregate", func(e *Encoder) error {
		e.PutInt(-42)
		e.PutUint(7)
		e.PutFloat(101.25)
		e.PutBool(true)
		e.PutStr("IBM")
		e.PutBytes([]byte{1, 2, 3})
		e.PutTime(time.Unix(0, 1234567890))
		e.PutTime(time.Time{})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("cnt", "CountSink", func(e *Encoder) error {
		e.PutInt(99)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), w.Finish()...)
}

func TestRoundTrip(t *testing.T) {
	data := buildSnapshot(t)
	snap, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	secs := snap.Sections()
	if len(secs) != 2 {
		t.Fatalf("sections = %d", len(secs))
	}
	if secs[0].Name != "agg" || secs[0].Kind != "Aggregate" || secs[1].Name != "cnt" || secs[1].Kind != "CountSink" {
		t.Fatalf("section identity wrong: %+v", secs)
	}
	d := secs[0].Decoder()
	if d.Int() != -42 || d.Uint() != 7 || d.Float() != 101.25 || !d.Bool() || d.Str() != "IBM" {
		t.Fatal("primitive round-trip wrong")
	}
	if b := d.Bytes(); len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Fatalf("bytes = %v", b)
	}
	if !d.Time().Equal(time.Unix(0, 1234567890)) {
		t.Fatal("time round-trip wrong")
	}
	if !d.Time().IsZero() {
		t.Fatal("zero time round-trip wrong")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
	d2 := secs[1].Decoder()
	if d2.Int() != 99 || d2.Err() != nil {
		t.Fatal("second section wrong")
	}
}

func TestEmptySnapshot(t *testing.T) {
	w := NewWriter()
	defer w.Close()
	snap, err := Parse(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sections()) != 0 {
		t.Fatalf("sections = %d", len(snap.Sections()))
	}
}

func TestSectionErrorPropagates(t *testing.T) {
	w := NewWriter()
	defer w.Close()
	boom := errors.New("boom")
	if err := w.Section("x", "K", func(*Encoder) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failed section must not have been framed.
	snap, err := Parse(append([]byte(nil), w.Finish()...))
	if err != nil || len(snap.Sections()) != 0 {
		t.Fatalf("snap=%v err=%v", snap, err)
	}
}

func TestSectionAfterFinish(t *testing.T) {
	w := NewWriter()
	defer w.Close()
	w.Finish()
	if err := w.Section("late", "K", func(*Encoder) error { return nil }); err == nil {
		t.Fatal("section after Finish must fail")
	}
}

func TestParseBadMagic(t *testing.T) {
	if _, err := Parse([]byte("NOPE....more bytes here")); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Parse(nil); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("nil input: err = %v", err)
	}
}

func TestParseVersionSkew(t *testing.T) {
	data := buildSnapshot(t)
	data[4] = Version + 1
	// Re-seal so only the version differs.
	body := data[:len(data)-crc32.Size]
	sum := crc32.Checksum(body, castagnoli)
	data[len(data)-4] = byte(sum >> 24)
	data[len(data)-3] = byte(sum >> 16)
	data[len(data)-2] = byte(sum >> 8)
	data[len(data)-1] = byte(sum)
	if _, err := Parse(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseCRCMismatch(t *testing.T) {
	data := buildSnapshot(t)
	data[7] ^= 0xff // flip a body bit, leave the trailer
	if _, err := Parse(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseTruncation(t *testing.T) {
	data := buildSnapshot(t)
	for cut := 0; cut < len(data); cut++ {
		_, err := Parse(data[:cut])
		if err == nil {
			t.Fatalf("truncation to %d bytes parsed", cut)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("truncation to %d: unexpected error class %v", cut, err)
		}
	}
}

func TestDecoderLatchesError(t *testing.T) {
	d := (&Section{payload: []byte{0x01}}).Decoder()
	_ = d.Float() // needs 8 bytes, has 1
	if d.Err() == nil {
		t.Fatal("expected latched error")
	}
	if d.Int() != 0 || d.Str() != "" || d.Bool() || !d.Time().IsZero() || d.Bytes() != nil {
		t.Fatal("reads after a latched error must return zero values")
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v", d.Err())
	}
}

func TestDecoderHostileLength(t *testing.T) {
	// A claimed string length far beyond the payload must fail cleanly,
	// never over-slice.
	payload := []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'h', 'i'}
	d := (&Section{payload: payload}).Decoder()
	if s := d.Str(); s != "" || d.Err() == nil {
		t.Fatalf("hostile length: s=%q err=%v", s, d.Err())
	}
}

// strSection returns the one section of a snapshot whose payload is
// strs written with PutStr.
func strSection(t *testing.T, strs ...string) (Section, []byte) {
	t.Helper()
	w := NewWriter()
	defer w.Close()
	if err := w.Section("s", "K", func(e *Encoder) error {
		for _, s := range strs {
			e.PutStr(s)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), w.Finish()...)
	snap, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Sections()[0], data
}

func TestDecoderStrOutlivesParseInput(t *testing.T) {
	words := []string{"IBM", "", "GOOG", "a longer symbol name"}
	sec, data := strSection(t, words...)
	d := sec.Decoder()
	got := make([]string, len(words))
	for i := range got {
		got[i] = d.Str()
	}
	for i := range data {
		data[i] = 0xAA
	}
	for i, want := range words {
		if got[i] != want {
			t.Fatalf("string %d = %q after the Parse input was overwritten, want %q", i, got[i], want)
		}
	}
}

func TestDecoderStrEmptyAndLatched(t *testing.T) {
	d := (&Section{payload: []byte{0x00, 0x02, 'h', 'i', 0x05, 'x'}}).Decoder()
	if s := d.Str(); s != "" || d.Err() != nil {
		t.Fatalf("empty string: s=%q err=%v", s, d.Err())
	}
	if s := d.Str(); s != "hi" {
		t.Fatalf("s = %q, want hi", s)
	}
	if s := d.Str(); s != "" || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("length past the end: s=%q err=%v", s, d.Err())
	}
	if s := d.Str(); s != "" {
		t.Fatalf("read after a latched error: s=%q", s)
	}
}

func TestDecoderStrAllocatesOncePerSection(t *testing.T) {
	words := make([]string, 1000)
	for i := range words {
		words[i] = fmt.Sprintf("user%06d", i)
	}
	sec, _ := strSection(t, words...)
	var last string
	allocs := testing.AllocsPerRun(20, func() {
		d := sec.Decoder()
		for range words {
			last = d.Str()
		}
	})
	if allocs != 1 || last != words[len(words)-1] {
		t.Fatalf("1000 strings from one section: %.1f allocations (want 1), last %q", allocs, last)
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if _, ok, err := s.Load("k"); ok || err != nil {
		t.Fatal("empty store Load wrong")
	}
	data := []byte{1, 2, 3}
	if err := s.Save("k", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 9 // Save must have copied
	got, ok, err := s.Load("k")
	if err != nil || !ok || got[0] != 1 {
		t.Fatalf("got=%v ok=%v err=%v", got, ok, err)
	}
	got[1] = 9 // Load must hand out a copy too
	got2, _, _ := s.Load("k")
	if got2[1] != 2 {
		t.Fatal("Load aliases stored bytes")
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Load("k"); ok {
		t.Fatal("Delete did not delete")
	}
	if err := s.Delete("missing"); err != nil {
		t.Fatal("deleting a missing key must not error")
	}
}

func TestFSStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load("job-1/pe-2"); ok || err != nil {
		t.Fatal("empty store Load wrong")
	}
	if err := s.Save("job-1/pe-2", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Keys with separators must not escape the store directory.
	if err := s.Save("../evil", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load("job-1/pe-2")
	if err != nil || !ok || string(got) != "hello" {
		t.Fatalf("got=%q ok=%v err=%v", got, ok, err)
	}
	if err := s.Save("job-1/pe-2", []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Load("job-1/pe-2")
	if string(got) != "world" {
		t.Fatalf("overwrite: got %q", got)
	}
	if err := s.Delete("job-1/pe-2"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Load("job-1/pe-2"); ok {
		t.Fatal("Delete did not delete")
	}
	if err := s.Delete("job-1/pe-2"); err != nil {
		t.Fatal("double delete must not error")
	}
}
