package main

import (
	"math"
	"testing"
	"time"

	"streamorca/internal/load"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 100}, 1},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

// The reported latency is the median over the windows of each window's
// own mean / p99: one disturbed window must not move it, and a window's
// p99 must be that window's, within the histogram's resolution.
func TestWindowMedianPercentiles(t *testing.T) {
	const perWindow = 10000
	window := func(base time.Duration, slow int, slowBy time.Duration) *load.Histogram {
		h := load.NewHistogram()
		for i := 0; i < perWindow; i++ {
			d := base
			if i < slow {
				d += slowBy
			}
			h.Record(d)
		}
		return h
	}
	hs := []*load.Histogram{
		window(100*time.Microsecond, 200, 900*time.Microsecond), // 2% at 1 ms: p99 = 1 ms
		window(100*time.Microsecond, 200, 900*time.Microsecond),
		window(100*time.Microsecond, 200, 900*time.Microsecond),
		window(100*time.Microsecond, 5000, 50*time.Millisecond), // the disturbed one
		load.NewHistogram(), // recorded nothing: left out, not counted as 0
	}
	p99 := windowMedian(hs, func(h *load.Histogram) time.Duration { return h.Quantile(0.99) })
	if want := float64(time.Millisecond); math.Abs(p99-want)/want > 0.04 {
		t.Errorf("window-median p99 = %.0f ns, want %.0f within the histogram's 3%%", p99, want)
	}
	mean := windowMedian(hs, (*load.Histogram).Mean)
	if want := float64(118 * time.Microsecond); math.Abs(mean-want)/want > 0.001 {
		t.Errorf("window-median mean = %.0f ns, want %.0f (the histogram's mean is exact)", mean, want)
	}
	// The same samples pooled into one histogram would report the
	// disturbed window's tail instead.
	pooled := load.NewHistogram()
	for _, h := range hs {
		pooled.Merge(h)
	}
	if got := float64(pooled.Quantile(0.99)); got < 10*p99 {
		t.Errorf("pooled p99 = %.0f ns: expected the disturbed window to dominate it", got)
	}
	if got := windowMedian(nil, (*load.Histogram).Mean); got != 0 {
		t.Errorf("windowMedian of nothing = %v, want 0", got)
	}
}

// A longer run has more incarnations, never shorter units, and the
// resize cycles end at the width they began.
func TestPlanScalesByCount(t *testing.T) {
	short, long := planFor(10, false), planFor(50, false)
	if long.incarnations <= short.incarnations {
		t.Errorf("a longer run does not measure more: %+v vs %+v", short, long)
	}
	short.incarnations = long.incarnations
	if short != long {
		t.Errorf("an incarnation differs between run lengths: %+v vs %+v", short, long)
	}
	for _, s := range []int{1, 7, 25, 60} {
		for _, traced := range []bool{false, true} {
			p := planFor(s, traced)
			if p.resizes%2 != 0 || p.resizes < 2 {
				t.Errorf("planFor(%d, %t): %d resizes would not end at the starting width", s, traced, p.resizes)
			}
			if traced && (p.segments%2 != 0 || p.incarnations != 1) {
				t.Errorf("planFor(%d, traced): %d segments on %d incarnations do not split evenly into sampled and unsampled", s, p.segments, p.incarnations)
			}
		}
	}
}
