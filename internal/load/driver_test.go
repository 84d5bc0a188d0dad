package load

import (
	"testing"
	"time"

	"streamorca/internal/tuple"
)

var driverSchema = tuple.MustSchema(
	tuple.Attribute{Name: "seq", Type: tuple.Int},
	tuple.Attribute{Name: "ts", Type: tuple.Timestamp},
)

func makeSeq(i int64) tuple.Tuple {
	t := tuple.New(driverSchema)
	ref := driverSchema.MustRef("seq")
	ref.SetInt(t, i)
	return t
}

// drain consumes the injector directly (no platform), records each
// tuple's latency against its stamped timestamp, and optionally stalls
// once mid-stream — a stand-in for a pipeline that stops draining.
func drain(in *Injector, h *Histogram, stallAt int64, stall time.Duration) <-chan int64 {
	done := make(chan int64, 1)
	tsRef := driverSchema.MustRef("ts")
	go func() {
		var n int64
		var run []tuple.Tuple
		for {
			var ok bool
			if run, ok = in.take(run, nil); !ok {
				done <- n
				return
			}
			for _, t := range run {
				if n == stallAt && stall > 0 {
					time.Sleep(stall) // the consumer stall the driver must ride out
				}
				h.Record(time.Since(tsRef.Time(t)))
				n++
			}
			clear(run)
		}
	}()
	return done
}

// TestOpenLoopCoordinatedOmission is the coordinated-omission gate: a
// consumer that stalls for half a second mid-run must inflate the
// recorded p999 by roughly the stall, even though fewer tuples were
// delivered during the stall — because the open-loop driver stamps
// intended send instants, every tuple that queued behind the stall is
// charged its full scheduling delay. A closed-loop-style measurement
// (latency from actual dequeue) would hide exactly this.
func TestOpenLoopCoordinatedOmission(t *testing.T) {
	const (
		rate  = 2000.0
		dur   = time.Second
		stall = 500 * time.Millisecond
	)
	run := func(name string, stallDur time.Duration) (Stats, *Histogram) {
		in := newInjector()
		h := NewHistogram()
		done := drain(in, h, 400, stallDur)
		st, err := RunOpenLoop(OpenLoopConfig{
			Injector: in,
			Make:     makeSeq,
			Rate:     rate,
			Duration: dur,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in.Close()
		delivered := <-done
		if st.Missed != 0 {
			t.Fatalf("%s: missed %d tuples", name, st.Missed)
		}
		if delivered != st.Offered {
			t.Fatalf("%s: delivered %d != offered %d", name, delivered, st.Offered)
		}
		if got := h.Count(); got != st.Offered {
			t.Fatalf("%s: recorded %d != offered %d — every offered tuple must be charged", name, got, st.Offered)
		}
		return st, h
	}

	smoothSt, smooth := run("smooth", 0)
	stalled, hist := run("stalled", stall)

	if p := hist.Quantile(0.999); p < stall/2 {
		t.Fatalf("stalled p999 = %v, want >= %v: the stall's scheduling delay must be charged", p, stall/2)
	}
	if p := smoothSt.MaxBehind; p > stall/2 {
		t.Skipf("control run itself fell %v behind; machine too loaded to compare", p)
	}
	if sp, cp := hist.Quantile(0.999), smooth.Quantile(0.999); sp < 4*cp {
		t.Fatalf("stalled p999 %v not clearly above smooth p999 %v", sp, cp)
	}
	if stalled.MaxBehind < stall/2 {
		t.Fatalf("driver MaxBehind = %v, want >= %v under back-pressure", stalled.MaxBehind, stall/2)
	}
}

// TestOpenLoopOffersScheduledCount pins the schedule arithmetic.
func TestOpenLoopOffersScheduledCount(t *testing.T) {
	in := newInjector()
	h := NewHistogram()
	done := drain(in, h, -1, 0)
	st, err := RunOpenLoop(OpenLoopConfig{
		Injector: in,
		Make:     makeSeq,
		Rate:     1000,
		Duration: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Close()
	<-done
	if st.Offered != 250 || st.Missed != 0 {
		t.Fatalf("offered %d missed %d, want 250/0", st.Offered, st.Missed)
	}
	if st.Elapsed < 240*time.Millisecond {
		t.Fatalf("elapsed %v: rate not paced", st.Elapsed)
	}
}

func TestOpenLoopRejectsBadConfig(t *testing.T) {
	if _, err := RunOpenLoop(OpenLoopConfig{}); err == nil {
		t.Fatal("want error for missing injector")
	}
	if _, err := RunOpenLoop(OpenLoopConfig{Injector: newInjector(), Make: makeSeq}); err == nil {
		t.Fatal("want error for zero rate")
	}
}

// TestClosedLoopThinkTimeBoundsRate verifies the closed-loop model:
// Users/Think bounds the offered rate, and every push is recorded.
func TestClosedLoopThinkTimeBoundsRate(t *testing.T) {
	in := newInjector()
	h := NewHistogram()
	done := drain(in, h, -1, 0)
	const (
		users = 4
		think = 20 * time.Millisecond
		dur   = 400 * time.Millisecond
	)
	st, err := RunClosedLoop(ClosedLoopConfig{
		Injector: in,
		Make:     makeSeq,
		Users:    users,
		Think:    think,
		Duration: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Close()
	delivered := <-done
	if st.Offered == 0 {
		t.Fatal("closed loop offered nothing")
	}
	// Each user sends at most once per think period (plus its first).
	bound := int64(users) * (int64(dur/think) + 2)
	if st.Offered > bound {
		t.Fatalf("offered %d exceeds think-time bound %d", st.Offered, bound)
	}
	if delivered != st.Offered {
		t.Fatalf("delivered %d != offered %d", delivered, st.Offered)
	}
}
