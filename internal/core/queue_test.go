package core

import (
	"sync"
	"testing"
	"testing/quick"

	"streamorca/internal/ids"
)

func TestEventQueueFIFO(t *testing.T) {
	q := newEventQueue()
	for i := 0; i < 5; i++ {
		q.push(&delivered{data: &eventData{name: string(rune('a' + i))}})
	}
	if q.depth() != 5 {
		t.Fatalf("depth = %d", q.depth())
	}
	for i := 0; i < 5; i++ {
		d, ok := q.pop()
		if !ok || d.data.name != string(rune('a'+i)) {
			t.Fatalf("pop %d = %v, %v", i, d, ok)
		}
	}
}

func TestEventQueueCloseDrains(t *testing.T) {
	q := newEventQueue()
	q.push(&delivered{})
	q.close()
	if _, ok := q.pop(); !ok {
		t.Fatal("queued event lost on close")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on closed empty queue returned an event")
	}
	q.push(&delivered{}) // dropped
	if q.depth() != 0 {
		t.Fatal("push after close enqueued")
	}
}

func TestEventQueueBlockingPop(t *testing.T) {
	q := newEventQueue()
	got := make(chan *delivered, 1)
	go func() {
		d, _ := q.pop()
		got <- d
	}()
	want := &delivered{data: &eventData{name: "x"}}
	q.push(want)
	if d := <-got; d != want {
		t.Fatalf("pop returned %v", d)
	}
}

// TestEventQueueConcurrentProperty: with one consumer and several
// producers, every pushed event is popped exactly once and per-producer
// order is preserved.
func TestEventQueueConcurrentProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		if len(counts) > 8 {
			counts = counts[:8]
		}
		q := newEventQueue()
		total := 0
		for _, c := range counts {
			total += int(c % 32)
		}
		var wg sync.WaitGroup
		for p, c := range counts {
			n := int(c % 32)
			wg.Add(1)
			go func(p, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					q.push(&delivered{data: &eventData{port: p, job: ids.JobID(i)}})
				}
			}(p, n)
		}
		seen := make(map[int]int) // producer -> last index seen
		for i := 0; i < total; i++ {
			d, ok := q.pop()
			if !ok {
				return false
			}
			p := d.data.port
			idx := int(d.data.job)
			if last, ok := seen[p]; ok && idx <= last {
				return false // per-producer order violated
			}
			seen[p] = idx
		}
		wg.Wait()
		return q.depth() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
