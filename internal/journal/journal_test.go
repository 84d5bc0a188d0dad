package journal

import (
	"testing"
	"time"

	"streamorca/internal/vclock"
)

// TestRingKeepsTheNewestLimitEvents: past Limit the oldest events are
// overwritten; Events stays oldest first with Seq contiguous, at every
// fill level around the wrap.
func TestRingKeepsTheNewestLimitEvents(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	r := New(clock)
	for n := 1; n <= 2*Limit+3; n++ {
		r.Add(Event{Attempt: n})
		clock.Advance(time.Millisecond)
		if n != 1 && n != Limit-1 && n != Limit && n != Limit+1 && n != 2*Limit+3 {
			continue
		}
		evs := r.Events()
		if want := min(n, Limit); len(evs) != want {
			t.Fatalf("after %d adds: %d events, want %d", n, len(evs), want)
		}
		for i, e := range evs {
			seq := uint64(n - len(evs) + i + 1)
			if e.Seq != seq || e.Attempt != int(seq) || !e.At.Equal(time.Unix(0, 0).Add(time.Duration(seq-1)*time.Millisecond)) {
				t.Fatalf("after %d adds: event %d = %+v, want seq %d", n, i, e, seq)
			}
		}
	}
}

// TestNilRingDiscards: writers need no nil check.
func TestNilRingDiscards(t *testing.T) {
	var r *Ring
	r.Add(Event{Action: "x"})
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil ring returned %+v", evs)
	}
}
