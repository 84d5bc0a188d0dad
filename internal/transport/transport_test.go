package transport

import (
	"strings"
	"testing"

	"streamorca/internal/metrics"
	"streamorca/internal/pe"
	"streamorca/internal/tuple"
)

var schema = tuple.MustSchema(
	tuple.Attribute{Name: "v", Type: tuple.Int},
	tuple.Attribute{Name: "s", Type: tuple.String},
)

// collectRemote gathers copies of the delivered items (PutBatch hands
// the frame's block back for reuse); safe because the link's flusher is
// the only goroutine calling it and tests read after Flush/Close.
func collectRemote(got *[]pe.Item) func(*pe.Batch) {
	return func(b *pe.Batch) {
		for _, it := range b.Items {
			if !it.IsMark() {
				it.T = it.T.Clone()
			}
			*got = append(*got, it)
		}
		pe.PutBatch(b)
	}
}

func TestLinkDeliversDecodedCopy(t *testing.T) {
	var got []pe.Item
	var sent, recv metrics.Counter
	link := NewLink(schema, collectRemote(&got), &sent, &recv, nil)
	defer link.Close()
	in := tuple.Build(schema).Int("v", 42).Str("s", "hello").Done()
	link.Send(pe.TupleItem(in))
	link.Flush()
	if len(got) != 1 {
		t.Fatalf("delivered %d items", len(got))
	}
	out := got[0].T
	if out.Int("v") != 42 || out.String("s") != "hello" {
		t.Fatalf("delivered %s", out.Format())
	}
	// Mutating the original must not affect the delivered copy.
	if err := in.SetInt("v", 7); err != nil {
		t.Fatal(err)
	}
	if out.Int("v") != 42 {
		t.Fatal("link shared tuple storage across the boundary")
	}
	want := int64(tuple.EncodedSize(in))
	if sent.Value() != want || recv.Value() != want {
		t.Fatalf("bytes sent=%d recv=%d want %d", sent.Value(), recv.Value(), want)
	}
}

func TestLinkMarksCountOverhead(t *testing.T) {
	var got []pe.Item
	var sent, recv metrics.Counter
	link := NewLink(schema, collectRemote(&got), &sent, &recv, nil)
	defer link.Close()
	link.Send(pe.MarkItem(tuple.FinalMark))
	link.Flush()
	if len(got) != 1 || got[0].Mark != tuple.FinalMark {
		t.Fatalf("marks not forwarded: %+v", got)
	}
	if sent.Value() != markOverhead || recv.Value() != markOverhead {
		t.Fatalf("mark bytes sent=%d recv=%d", sent.Value(), recv.Value())
	}
}

func TestLinkNilCountersTolerated(t *testing.T) {
	var got []pe.Item
	link := NewLink(schema, collectRemote(&got), nil, nil, nil)
	link.Send(pe.TupleItem(tuple.New(schema)))
	link.Send(pe.MarkItem(tuple.WindowMark))
	link.Close() // Close drains everything still pending
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].IsMark() || got[1].Mark != tuple.WindowMark {
		t.Fatalf("order not preserved: %+v", got)
	}
}

func TestLinkEncodeErrorDropped(t *testing.T) {
	var delivered int
	var errs []error
	link := NewLink(schema, func(b *pe.Batch) { delivered += len(b.Items); pe.PutBatch(b) },
		nil, nil, func(err error) { errs = append(errs, err) })
	link.Send(pe.TupleItem(tuple.Tuple{})) // invalid tuple fails to encode
	link.Flush()
	if delivered != 0 {
		t.Fatal("invalid tuple delivered")
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "encode") {
		t.Fatalf("errs = %v", errs)
	}
	link.Close()
}

func TestLinkSchemaMismatchDropped(t *testing.T) {
	other := tuple.MustSchema(tuple.Attribute{Name: "x", Type: tuple.Float})
	var delivered int
	var errs []error
	// Link decodes with a schema narrower than the sender's, so leftover
	// bytes signal a mismatch.
	link := NewLink(other, func(b *pe.Batch) { delivered += len(b.Items); pe.PutBatch(b) },
		nil, nil, func(err error) { errs = append(errs, err) })
	big := tuple.Build(schema).Int("v", 1).Str("s", "aaaaaaaaaaaaaaaa").Done()
	link.Send(pe.TupleItem(big))
	link.Flush()
	if delivered != 0 {
		t.Fatal("mismatched tuple delivered")
	}
	if len(errs) != 1 {
		t.Fatalf("errs = %v", errs)
	}
	link.Close()
}

// TestLinkBatchesUnderLoad checks that many queued tuples arrive intact,
// in order, and with exact byte accounting through the framed path.
func TestLinkBatchesUnderLoad(t *testing.T) {
	var got []pe.Item
	var sent, recv metrics.Counter
	link := NewLink(schema, collectRemote(&got), &sent, &recv, nil)
	const n = 10 * MaxFrameTuples
	var wantBytes int64
	for i := 0; i < n; i++ {
		// Lengths 0..199: empty strings, and both one- and two-byte
		// length prefixes, through EncodedSize and the frame alike.
		tp := tuple.Build(schema).Int("v", int64(i)).Str("s", strings.Repeat("p", i%200)).Done()
		wantBytes += int64(tuple.EncodedSize(tp))
		link.Send(pe.TupleItem(tp))
		if i == n/2 {
			link.Send(pe.MarkItem(tuple.WindowMark))
		}
	}
	link.Close()
	if len(got) != n+1 {
		t.Fatalf("delivered %d items, want %d", len(got), n+1)
	}
	seq := int64(0)
	marks := 0
	for _, it := range got {
		if it.IsMark() {
			marks++
			continue
		}
		if it.T.Int("v") != seq {
			t.Fatalf("out of order: got %d want %d", it.T.Int("v"), seq)
		}
		seq++
	}
	if marks != 1 {
		t.Fatalf("marks = %d", marks)
	}
	wantBytes += markOverhead
	if sent.Value() != wantBytes || recv.Value() != wantBytes {
		t.Fatalf("bytes sent=%d recv=%d want %d", sent.Value(), recv.Value(), wantBytes)
	}
}

func TestLinkSendAfterCloseDropped(t *testing.T) {
	var got []pe.Item
	link := NewLink(schema, collectRemote(&got), nil, nil, nil)
	link.Close()
	link.Send(pe.TupleItem(tuple.New(schema)))
	if len(got) != 0 {
		t.Fatalf("delivered %d after close", len(got))
	}
	link.Close() // idempotent
}
