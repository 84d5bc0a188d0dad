package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"streamorca/internal/pe"
	"streamorca/internal/tuple"
)

// within runs fn on its own goroutine and fails the test when it has not
// returned by the deadline.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out: %s", what)
	}
}

// frameLog is a remote end that writes down every delivered batch, "m"
// for a mark and the value for a tuple.
type frameLog struct {
	frames [][]string
}

func (f *frameLog) remote(b *pe.Batch) {
	var frame []string
	for _, it := range b.Items {
		if it.IsMark() {
			frame = append(frame, "m")
		} else {
			frame = append(frame, fmt.Sprint(it.T.Int("v")))
		}
	}
	f.frames = append(f.frames, frame)
	pe.PutBatch(b)
}

func (f *frameLog) flat() []string {
	var out []string
	for _, fr := range f.frames {
		out = append(out, fr...)
	}
	return out
}

// TestSendRunMatchesSend: for random mixes of tuples and marks, cut into
// random runs, SendRun delivers the item sequence a Send per item does —
// marks in position and alone in their batch, no frame over
// MaxFrameTuples.
func TestSendRunMatchesSend(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 200; round++ {
		items := make([]pe.Item, rng.Intn(3*MaxFrameTuples))
		for i := range items {
			if rng.Intn(10) == 0 {
				items[i] = pe.MarkItem(tuple.WindowMark)
			} else {
				items[i] = pe.TupleItem(tuple.Build(intOnly).Int("v", int64(i)).Done())
			}
		}
		var byRun, byItem frameLog
		runs := NewLink(intOnly, byRun.remote, nil, nil, func(err error) { t.Error(err) })
		ones := NewLink(intOnly, byItem.remote, nil, nil, func(err error) { t.Error(err) })
		for rest := items; len(rest) > 0; {
			n := 1 + rng.Intn(len(rest))
			runs.SendRun(rest[:n])
			rest = rest[n:]
		}
		for _, it := range items {
			ones.Send(it)
		}
		runs.Close()
		ones.Close()
		if got, want := byRun.flat(), byItem.flat(); len(got) != len(items) || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: SendRun delivered %v, Send delivered %v", round, got, want)
		}
		for _, fr := range byRun.frames {
			if len(fr) > MaxFrameTuples || (len(fr) > 1 && slices.Contains(fr, "m")) {
				t.Fatalf("round %d: frame %v", round, fr)
			}
		}
	}
}

// pendingLen returns the length of the sender-side buffer.
func pendingLen(l *Link) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

func intItems(n int) []pe.Item {
	items := make([]pe.Item, n)
	for i := range items {
		items[i] = pe.TupleItem(tuple.Build(intOnly).Int("v", int64(i)).Done())
	}
	return items
}

// TestSendRunBlocksAtMaxPending: a run longer than the free space is
// appended as far as maxPending allows, waits there while the flusher is
// held up, and completes once it drains; everything arrives in order.
func TestSendRunBlocksAtMaxPending(t *testing.T) {
	gate := make(chan struct{})
	delivered := 0
	link := NewLink(intOnly, func(b *pe.Batch) {
		<-gate
		for _, it := range b.Items {
			if int(it.T.Int("v")) != delivered {
				t.Errorf("item %d arrived at position %d", it.T.Int("v"), delivered)
			}
			delivered++
		}
		pe.PutBatch(b)
	}, nil, nil, nil)
	// The flusher swaps out the first maxPending and parks in remote, the
	// sender refills the buffer, and the last 100 have nowhere to go.
	const n = 2*maxPending + 100
	sent := make(chan struct{})
	go func() { defer close(sent); link.SendRun(intItems(n)) }()
	deadline := time.Now().Add(5 * time.Second)
	for pendingLen(link) != maxPending && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-sent:
		t.Fatal("SendRun returned with the buffer full and the flusher held")
	case <-time.After(30 * time.Millisecond):
	}
	if got := pendingLen(link); got != maxPending {
		t.Fatalf("pending = %d while blocked, want maxPending = %d", got, maxPending)
	}
	close(gate)
	within(t, "SendRun completes after the drain", func() { <-sent })
	within(t, "link drains", link.Close)
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
}

// TestSendRunOnDeadLinkReturns: a closed or discarded link drops a run
// of any length without blocking, and Discard releases a sender parked
// on a full buffer.
func TestSendRunOnDeadLinkReturns(t *testing.T) {
	var got []pe.Item
	closed := NewLink(intOnly, collectRemote(&got), nil, nil, nil)
	closed.Close()
	discarded := NewLink(intOnly, collectRemote(&got), nil, nil, nil)
	discarded.Discard()
	within(t, "SendRun on dead links", func() {
		closed.SendRun(intItems(2 * maxPending))
		discarded.SendRun(intItems(2 * maxPending))
	})
	if len(got) != 0 {
		t.Fatalf("dead links delivered %d items", len(got))
	}

	gate := make(chan struct{})
	held := NewLink(intOnly, func(b *pe.Batch) { <-gate; pe.PutBatch(b) }, nil, nil, nil)
	sent := make(chan struct{})
	go func() { defer close(sent); held.SendRun(intItems(3 * maxPending)) }()
	deadline := time.Now().Add(5 * time.Second)
	for pendingLen(held) != maxPending && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	held.Discard()
	within(t, "Discard releases the parked sender", func() { <-sent })
	close(gate)
	within(t, "flusher exits", held.Close)
}
