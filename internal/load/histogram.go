// Package load is the load-generation and latency-measurement
// subsystem: open-loop (constant-rate, coordinated-omission-correct)
// and closed-loop (N users with think time) drivers that inject tuples
// into a running application through a LoadSource operator, a
// LatencySink operator that measures source-to-sink latency from a
// timestamp attribute stamped at injection, and a mergeable
// log-bucketed histogram for tail percentiles.
//
// The open-loop driver is the heavy-traffic regression gate's core:
// latency is charged against each tuple's *intended* send instant
// (start + i/rate), so a pipeline that stalls inflates the recorded
// tail even though fewer tuples were delivered during the stall —
// the coordinated-omission correction.
package load

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits sets the histogram's resolution: 2^subBits sub-buckets per
// power-of-two value range, giving a relative quantile error of at
// most 1/2^subBits (~3.1% at 5). Raising it multiplies the (fixed)
// bucket count.
const subBits = 5

// numBuckets covers every non-negative int64 nanosecond value: the
// top octave (bit length 63) ends at bucket index 57<<subBits + 63.
const numBuckets = (63-subBits-1)<<subBits + (1 << (subBits + 1))

// Histogram is a low-overhead mergeable latency histogram with
// log-linear buckets: values below 2^(subBits+1) ns are exact, larger
// values land in one of 2^subBits linear sub-buckets of their
// power-of-two range. Record is four atomic operations and never
// allocates, so it can sit on a sink's per-tuple path. The zero value
// is NOT ready; use NewHistogram.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64 until the first Record
	return h
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	exp := bits.Len64(uint64(v))
	if exp <= subBits+1 {
		return int(v)
	}
	shift := uint(exp - subBits - 1)
	return int(shift)<<subBits + int(uint64(v)>>shift)
}

// bucketMid returns the representative (midpoint) value of a bucket.
func bucketMid(idx int) int64 {
	if idx < 1<<(subBits+1) {
		return int64(idx)
	}
	b := uint(idx>>subBits - 1)
	m := int64(idx) - int64(b)<<subBits
	return m<<b + 1<<b>>1
}

// Record adds one latency observation. Negative durations (clock skew)
// clamp to zero. Safe for concurrent use.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the average recorded latency.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest recorded latency (exact, not bucketed).
func (h *Histogram) Max() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Min returns the smallest recorded latency (exact, not bucketed).
func (h *Histogram) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Quantile returns the latency at quantile q in [0,1] — the bucket
// midpoint, accurate to the histogram's ~3% relative error, clamped to
// the exact observed max. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(q*float64(n) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= target {
			v := bucketMid(i)
			if m := h.max.Load(); v > m {
				v = m
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max.Load())
}

// Merge folds o's observations into h. Safe to call concurrently with
// Record on either histogram; the merge itself is not atomic across
// buckets (quantiles read mid-merge may be transiently off).
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i := 0; i < numBuckets; i++ {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	if o.count.Load() > 0 {
		for {
			cur := h.max.Load()
			v := o.max.Load()
			if v <= cur || h.max.CompareAndSwap(cur, v) {
				break
			}
		}
		for {
			cur := h.min.Load()
			v := o.min.Load()
			if v >= cur || h.min.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}
