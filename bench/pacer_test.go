package main

import (
	"testing"
	"time"
)

// fakeClock drives a pacer without waiting: sleeping and yielding move
// time forward.
type fakeClock struct {
	t      time.Time
	sleeps []time.Duration
	yields int
}

func (c *fakeClock) pacer(rate float64, spin time.Duration) *pacer {
	p := newPacer(c.t, rate, spin)
	p.now = func() time.Time { return c.t }
	p.sleep = func(d time.Duration) { c.sleeps = append(c.sleeps, d); c.t = c.t.Add(d) }
	p.yield = func() { c.yields++; c.t = c.t.Add(time.Microsecond) }
	return p
}

func TestPacerSchedule(t *testing.T) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	start := c.t
	p := c.pacer(200000, 2*time.Millisecond)
	for _, tc := range []struct {
		i    int64
		want time.Duration
	}{{0, 0}, {1, 5 * time.Microsecond}, {200000, time.Second}, {300001, 1500005 * time.Microsecond}} {
		if got := p.due(tc.i).Sub(start); got != tc.want {
			t.Errorf("due(%d) = start+%s, want start+%s", tc.i, got, tc.want)
		}
	}
}

func TestPacerSleepsThenYields(t *testing.T) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	p := c.pacer(100, 2*time.Millisecond) // 10 ms apart
	due := p.due(1)
	got := p.wait(due)
	if got.Before(due) {
		t.Fatalf("wait returned %s before the due instant", due.Sub(got))
	}
	if len(c.sleeps) != 1 || c.sleeps[0] != 8*time.Millisecond {
		t.Errorf("sleeps = %v, want one of 8ms (up to the spin window)", c.sleeps)
	}
	if c.yields == 0 {
		t.Error("never yielded inside the spin window")
	}
	if late := got.Sub(due); late > time.Microsecond {
		t.Errorf("woke %s late; a yield loop should land within one yield", late)
	}
}

// A consumer that stalls must not make the pacer drop or reorder
// anything: every scheduled tuple is emitted exactly once, in order,
// stamped with its own due instant, never before it, and while the pacer
// is behind it does not wait at all.
func TestPacerNeverSkips(t *testing.T) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	p := c.pacer(1000, 0) // 1 ms apart, always sleeping
	const n = 500
	var next int64
	var sleepsAtStall, sleepsCaughtUp int
	emitted := p.run(n, nil, func(i int64, due, sent time.Time) bool {
		if i != next {
			t.Fatalf("emitted %d, want %d", i, next)
		}
		next++
		if !due.Equal(p.due(i)) {
			t.Fatalf("tuple %d stamped due %s, schedule says %s", i, due, p.due(i))
		}
		if sent.Before(due) {
			t.Fatalf("tuple %d sent %s early", i, due.Sub(sent))
		}
		switch i {
		case 100:
			c.t = c.t.Add(50 * time.Millisecond) // back-pressure: the push blocks
			sleepsAtStall = len(c.sleeps)
		case 150: // due exactly where the stall ended
			sleepsCaughtUp = len(c.sleeps)
		}
		return true
	})
	if emitted != n || next != n {
		t.Fatalf("emitted %d of %d", emitted, n)
	}
	if sleepsCaughtUp != sleepsAtStall {
		t.Errorf("slept %d times while behind schedule", sleepsCaughtUp-sleepsAtStall)
	}
	// 50 ms behind at 1 ms apart is 50 tuples emitted back to back: the
	// sleeps are the 100 before the stall and the ones after catching up.
	if got, want := len(c.sleeps), n-1-50; got != want {
		t.Errorf("slept %d times, want %d (none while catching up)", got, want)
	}
	// Caught up, it is on schedule again.
	if late := c.t.Sub(p.due(n - 1)); late < 0 || late > time.Millisecond {
		t.Errorf("finished %s off schedule", late)
	}
}

func TestPacerStops(t *testing.T) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	p := c.pacer(1000, 0)
	stop := make(chan struct{})
	got := p.run(100, stop, func(i int64, _, _ time.Time) bool {
		if i == 9 {
			close(stop)
		}
		return true
	})
	if got != 10 {
		t.Errorf("emitted %d before honouring stop, want 10", got)
	}
	if got := p.run(100, nil, func(i int64, _, _ time.Time) bool { return i < 4 }); got != 4 {
		t.Errorf("emitted %d before honouring a refused emit, want 4", got)
	}
}
