package main

import (
	"runtime"
	"time"
)

// pacer schedules an open loop: tuple i is due at start + i/rate,
// whatever happened to the tuples before it. It waits by sleeping until
// the due instant is within spin, then yielding in a loop — a bare timer
// wakes hundreds of microseconds late on a small box, which at 200 000
// tuples/s would be the whole measurement. A pacer never skips a
// scheduled tuple: when it is behind it emits without waiting until it
// has caught up, and the lateness shows in the due-based latency.
type pacer struct {
	start time.Time
	rate  float64       // tuples per second
	spin  time.Duration // yield instead of sleeping inside this window; 0 = always sleep

	// Clock hooks, replaced by the tests.
	now   func() time.Time
	sleep func(time.Duration)
	yield func()
}

func newPacer(start time.Time, rate float64, spin time.Duration) *pacer {
	return &pacer{start: start, rate: rate, spin: spin, now: time.Now, sleep: time.Sleep, yield: runtime.Gosched}
}

// due is the instant tuple i is scheduled for.
func (p *pacer) due(i int64) time.Time {
	return p.start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
}

// wait blocks until due (returning at once when it has passed) and
// returns the instant it stopped waiting.
func (p *pacer) wait(due time.Time) time.Time {
	for {
		now := p.now()
		left := due.Sub(now)
		switch {
		case left <= 0:
			return now
		case left > p.spin:
			p.sleep(left - p.spin)
		default:
			p.yield()
		}
	}
}

// run emits tuples 0..n-1 in order, each exactly once, each no earlier
// than its due instant; emit receives the due instant and the instant
// the wait ended. A false return from emit, or stop closing, ends the
// run early; run returns how many tuples were emitted.
func (p *pacer) run(n int64, stop <-chan struct{}, emit func(i int64, due, sent time.Time) bool) int64 {
	for i := int64(0); i < n; i++ {
		select {
		case <-stop:
			return i
		default:
		}
		due := p.due(i)
		if !emit(i, due, p.wait(due)) {
			return i
		}
	}
	return n
}
