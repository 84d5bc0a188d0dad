package pe

import (
	"sync"
	"testing"
	"time"

	"streamorca/internal/tuple"
	"streamorca/internal/wait"
)

func intItem(v int64) Item { return TupleItem(tuple.Build(intSchema).Int("v", v).Done()) }

// blocked reports whether ch stays silent for a little while — evidence
// that the goroutine feeding it is parked.
func blocked(ch <-chan bool) bool {
	select {
	case <-ch:
		return false
	case <-time.After(30 * time.Millisecond):
		return true
	}
}

// TestInboxPerProducerFIFO: entries of one producer come out in the order
// it put them, whatever the interleaving with other producers and
// however the consumer's swaps cut the stream.
func TestInboxPerProducerFIFO(t *testing.T) {
	const producers, each = 4, 2000
	q := newInbox(16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !q.put(&queued{port: p, item: [1]Item{intItem(int64(i))}}, 1) {
					t.Errorf("producer %d: put %d refused", p, i)
					return
				}
			}
		}(p)
	}
	wait.Within(t, "consumer drains every producer", func() {
		next := make([]int64, producers)
		var run []queued
		for got := 0; got < producers*each; {
			var w int
			run, w, _ = q.take(run)
			if w != len(run) {
				t.Errorf("weight %d for %d single-tuple entries", w, len(run))
			}
			for _, e := range run {
				if v := e.item[0].T.Int("v"); v != next[e.port] {
					t.Errorf("producer %d: got %d, want %d", e.port, v, next[e.port])
				}
				next[e.port]++
			}
			got += len(run)
			clear(run)
		}
	})
	wg.Wait()
}

// TestInboxTakeReturnsEverything: one swap hands over all that is
// pending, with its weight in tuples, and leaves the inbox empty.
func TestInboxTakeReturnsEverything(t *testing.T) {
	q := newInbox(256)
	b := GetBatch()
	b.Items = append(b.Items, intItem(1), intItem(2), intItem(3))
	q.put(&queued{item: [1]Item{intItem(0)}}, 1)
	q.put(&queued{batch: b}, 3)
	q.put(&queued{item: [1]Item{MarkItem(tuple.WindowMark)}}, 0)
	q.put(&queued{sync: &syncMsg{}}, 0)
	if d := q.depth(); d != 4 {
		t.Fatalf("depth = %d, want 4 tuples", d)
	}
	run, w, ok := q.take(nil)
	if !ok || len(run) != 4 || w != 4 {
		t.Fatalf("take = %d entries, weight %d, ok %v; want 4, 4, true", len(run), w, ok)
	}
	if run[1].batch != b || run[3].sync == nil {
		t.Fatalf("entries out of order: %+v", run)
	}
	if d := q.depth(); d != 0 {
		t.Fatalf("depth after take = %d", d)
	}
}

// TestInboxBlocksAtLimitInTuples: the limit counts tuples, so one batch
// entry can fill the inbox; a swap releases the blocked producer.
func TestInboxBlocksAtLimitInTuples(t *testing.T) {
	q := newInbox(4)
	b := GetBatch()
	b.Items = append(b.Items, intItem(0), intItem(1), intItem(2), intItem(3))
	q.put(&queued{batch: b}, 4)
	res := make(chan bool, 1)
	go func() { res <- q.put(&queued{item: [1]Item{intItem(4)}}, 1) }()
	if !blocked(res) {
		t.Fatal("put went through a full inbox")
	}
	if run, w, _ := q.take(nil); len(run) != 1 || w != 4 {
		t.Fatalf("take = %d entries, weight %d", len(run), w)
	}
	wait.Within(t, "swap releases the producer", func() {
		if !<-res {
			t.Error("released put was refused")
		}
	})
	if d := q.depth(); d != 1 {
		t.Fatalf("depth = %d, want the released tuple", d)
	}
}

// TestInboxClose: close releases a blocked producer (its put fails),
// wakes a parked consumer, lets the consumer collect what was pending,
// and fails every later put.
func TestInboxClose(t *testing.T) {
	q := newInbox(1)
	q.put(&queued{item: [1]Item{intItem(0)}}, 1)
	res := make(chan bool, 1)
	go func() { res <- q.put(&queued{item: [1]Item{intItem(1)}}, 1) }()
	if !blocked(res) {
		t.Fatal("put went through a full inbox")
	}
	q.close()
	wait.Within(t, "close releases the producer", func() {
		if <-res {
			t.Error("put into a closed inbox succeeded")
		}
	})
	if run, w, ok := q.take(nil); !ok || len(run) != 1 || w != 1 {
		t.Fatalf("take after close = %d entries, weight %d, ok %v; want the pending one", len(run), w, ok)
	}
	if _, _, ok := q.take(nil); ok {
		t.Fatal("take on a closed, empty inbox reported content")
	}
	if q.put(&queued{item: [1]Item{intItem(2)}}, 1) {
		t.Fatal("put after close succeeded")
	}

	parked := newInbox(1)
	got := make(chan bool, 1)
	go func() { _, _, ok := parked.take(nil); got <- ok }()
	if !blocked(got) {
		t.Fatal("take returned from an empty open inbox")
	}
	parked.close()
	wait.Within(t, "close wakes the consumer", func() {
		if <-got {
			t.Error("woken consumer was told there is content")
		}
	})
}
