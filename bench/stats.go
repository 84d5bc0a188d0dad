package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"streamorca/internal/load"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowMedian reduces each histogram with f and returns the median
// over the histograms that recorded anything: one slow window (a GC
// cycle, a noisy neighbour) does not move it.
func windowMedian(hs []*load.Histogram, f func(*load.Histogram) time.Duration) float64 {
	var xs []float64
	for _, h := range hs {
		if h.Count() > 0 {
			xs = append(xs, float64(f(h)))
		}
	}
	return median(xs)
}

var processStart = time.Now()

// wallTime is the wall-clock time since the process started.
func wallTime() time.Duration { return time.Since(processStart) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocated is the cumulative bytes the process has allocated.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func durUs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
