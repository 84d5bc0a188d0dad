package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamorca/internal/wait"
)

var epoch = time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)

func TestManualNow(t *testing.T) {
	m := NewManual(epoch)
	if got := m.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	m.Advance(5 * time.Second)
	if got := m.Now(); !got.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("Now() after advance = %v", got)
	}
}

func TestManualAdvanceBackwardsIsNoop(t *testing.T) {
	m := NewManual(epoch)
	m.AdvanceTo(epoch.Add(-time.Hour))
	if got := m.Now(); !got.Equal(epoch) {
		t.Fatalf("clock moved backwards to %v", got)
	}
}

func TestManualAfterFiresAtDeadline(t *testing.T) {
	m := NewManual(epoch)
	ch := m.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before the clock advanced")
	default:
	}
	m.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired too early")
	default:
	}
	m.Advance(time.Second)
	select {
	case at := <-ch:
		if !at.Equal(epoch.Add(10 * time.Second)) {
			t.Fatalf("fired at %v", at)
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}
}

func TestManualTimersFireInDeadlineOrder(t *testing.T) {
	m := NewManual(epoch)
	var mu sync.Mutex
	var order []int
	record := func(id int) func() {
		return func() {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}
	}
	m.AfterFunc(3*time.Second, record(3))
	m.AfterFunc(1*time.Second, record(1))
	m.AfterFunc(2*time.Second, record(2))
	m.Advance(5 * time.Second)
	wait.For(t, "three timers fired", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("timers fired out of order: %v", order)
	}
}

func TestManualAfterFuncStop(t *testing.T) {
	m := NewManual(epoch)
	var fired atomic.Bool
	tm := m.AfterFunc(time.Second, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop() = false for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	m.Advance(2 * time.Second)
	// AfterFunc runs on the advancing goroutine, so once the heap has
	// drained the stopped timer has had its only chance to fire.
	m.mu.Lock()
	left := m.pending.Len()
	m.mu.Unlock()
	if left != 0 || fired.Load() {
		t.Fatalf("stopped timer fired: %v, with %d timers still pending", fired.Load(), left)
	}
}

func TestManualSleepWakesOnAdvance(t *testing.T) {
	m := NewManual(epoch)
	done := make(chan struct{})
	go func() {
		m.Sleep(time.Minute)
		close(done)
	}()
	m.BlockUntilWaiters(1)
	select {
	case <-done:
		t.Fatal("Sleep returned before advance")
	default:
	}
	m.Advance(time.Minute)
	wait.Within(t, "Sleep wakes after the advance", func() { <-done })
}

func TestManualSleepZeroReturnsImmediately(t *testing.T) {
	m := NewManual(epoch)
	m.Sleep(0)
	m.Sleep(-time.Second)
}

func TestManualTicker(t *testing.T) {
	m := NewManual(epoch)
	tk := m.NewTicker(10 * time.Second)
	m.Advance(10 * time.Second)
	select {
	case at := <-tk.C():
		if !at.Equal(epoch.Add(10 * time.Second)) {
			t.Fatalf("first tick at %v", at)
		}
	default:
		t.Fatal("no tick after one period")
	}
	// An undrained ticker drops ticks rather than queueing them.
	m.Advance(30 * time.Second)
	<-tk.C()
	select {
	case <-tk.C():
		t.Fatal("ticker queued more than one tick")
	default:
	}
	tk.Stop()
	m.Advance(time.Minute)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker delivered a tick")
	default:
	}
}

func TestManualTickerPanicsOnNonPositivePeriod(t *testing.T) {
	m := NewManual(epoch)
	defer func() {
		if recover() == nil {
			t.Fatal("NewTicker(0) did not panic")
		}
	}()
	m.NewTicker(0)
}

func TestManualWaitersCount(t *testing.T) {
	m := NewManual(epoch)
	for i := 0; i < 3; i++ {
		go m.Sleep(time.Hour)
	}
	m.BlockUntilWaiters(3)
	if got := m.Waiters(); got != 3 {
		t.Fatalf("Waiters() = %d, want 3", got)
	}
	m.Advance(time.Hour)
	wait.For(t, "no waiters", func() bool { return m.Waiters() == 0 })
}

func TestManualAdvanceToFiresIntermediatePeriodicTicks(t *testing.T) {
	m := NewManual(epoch)
	var ticks atomic.Int64
	tk := &countingTicker{n: &ticks}
	_ = tk
	// Use AfterFunc chains to count periodic behaviour through a ticker.
	ticker := m.NewTicker(time.Second)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 3; i++ {
			<-ticker.C()
			ticks.Add(1)
			// Simulate a consumer that drains promptly. Each drain lets
			// the next tick in.
		}
		close(done)
	}()
	for i := 0; i < 3; i++ {
		m.Advance(time.Second)
		wait.For(t, fmt.Sprintf("tick %d", i+1), func() bool { return ticks.Load() == int64(i+1) })
	}
	<-done
}

type countingTicker struct{ n *atomic.Int64 }

func TestRealClockBasics(t *testing.T) {
	c := Real()
	before := time.Now()
	if c.Now().Before(before.Add(-time.Second)) {
		t.Fatal("real clock far behind wall clock")
	}
	var fired atomic.Bool
	tm := c.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	defer tm.Stop()
	wait.For(t, "the real AfterFunc", fired.Load)
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("real After never fired")
	}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("real ticker never ticked")
	}
}
