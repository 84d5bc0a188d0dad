package load

import (
	"sync"
	"sync/atomic"
	"time"

	"streamorca/internal/opapi"
)

// Meter accumulates what a LatencySink observes for one run: the
// latency histogram plus per-window delivery counts for windowed
// throughput. Meters live in the platform instance's object set (like
// a sink's collection) so they survive PE restarts — a chaos-killed
// sink PE reattaches to the same Meter and the run's statistics stay
// continuous.
type Meter struct {
	// Hist is the source-to-sink latency histogram.
	Hist *Histogram

	delivered atomic.Int64

	mu      sync.Mutex
	start   time.Time
	width   time.Duration
	windows []int64
}

// Arm configures windowed throughput accounting: deliveries are binned
// by arrival time into consecutive windows of the given width starting
// at start. Call before the run; un-armed meters still count and
// record latency.
func (m *Meter) Arm(start time.Time, width time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.start = start
	m.width = width
	m.windows = nil
}

// Record registers one delivered tuple observed at time at with the
// given source-to-sink latency.
func (m *Meter) Record(at time.Time, lat time.Duration) {
	m.Hist.Record(lat)
	m.delivered.Add(1)
	m.mu.Lock()
	if m.width > 0 {
		if idx := int(at.Sub(m.start) / m.width); idx >= 0 {
			for len(m.windows) <= idx {
				m.windows = append(m.windows, 0)
			}
			m.windows[idx]++
		}
	}
	m.mu.Unlock()
}

// Delivered returns the number of tuples recorded so far.
func (m *Meter) Delivered() int64 { return m.delivered.Load() }

// WindowRates returns the per-window throughput in tuples/sec, one
// entry per elapsed window. A trailing partial window is excluded so
// its rate is not under-reported.
func (m *Meter) WindowRates(now time.Time) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.width <= 0 || len(m.windows) == 0 {
		return nil
	}
	full := int(now.Sub(m.start) / m.width)
	if full > len(m.windows) {
		full = len(m.windows)
	}
	rates := make([]float64, 0, full)
	perSec := m.width.Seconds()
	for i := 0; i < full; i++ {
		rates = append(rates, float64(m.windows[i])/perSec)
	}
	return rates
}

// MeterIn returns the named meter of an object set, creating it on
// first use. LatencySink operators resolve their meter by id at Open,
// so drivers and sinks share one Meter across PE restarts.
func MeterIn(objs *opapi.Objects, id string) *Meter {
	return opapi.Obtain(objs, id, func() *Meter { return &Meter{Hist: NewHistogram()} })
}
