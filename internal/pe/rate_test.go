package pe

import (
	"testing"
	"time"

	"streamorca/internal/metrics"
	"streamorca/internal/vclock"
	"streamorca/internal/wait"
)

func peGauge(t *testing.T, samples []metrics.Sample, name string) int64 {
	t.Helper()
	for _, s := range samples {
		if s.Scope == metrics.PEScope && s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no PE-scope sample %q", name)
	return 0
}

// TestIngressEgressRateGauges pins the tuples-per-second gauges against
// a manual clock: a pipeline that processes 10 tuples (source emit +
// doubler in/out + sink in) over one virtual second must report the
// counter deltas divided by the elapsed time, and a later idle second
// must decay both gauges back to zero.
func TestIngressEgressRateGauges(t *testing.T) {
	coll := &collector{}
	clock := vclock.NewManual(time.Unix(0, 0))
	p, err := New(Config{
		ID: 1, Job: 1, App: "test", Host: "h1", Clock: clock,
		Ops:      []OpSpec{srcSpec("src"), midSpec("dbl", "Doubler"), sinkSpec("sink")},
		Wires:    []Wire{{"src", 0, "dbl", 0}, {"dbl", 0, "sink", 0}},
		Registry: newTestRegistry(coll, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	wait.For(t, "all tuples at sink", func() bool {
		return len(coll.values()) == 10
	})

	// Both gauges exist (pre-created) and read zero before any interval
	// has elapsed: the sub-millisecond snapshot keeps the baseline.
	first := p.MetricsSnapshot()
	if v := peGauge(t, first, metrics.PEIngestRate); v != 0 {
		t.Fatalf("ingest rate before any elapsed time = %d, want 0", v)
	}

	inC := p.peMetrics.Counter(metrics.PETuplesProcessed).Value()
	outC := p.peMetrics.Counter(metrics.PETuplesSubmitted).Value()
	if inC == 0 || outC == 0 {
		t.Fatalf("tuple counters not advancing: in=%d out=%d", inC, outC)
	}

	clock.Advance(time.Second)
	snap := p.MetricsSnapshot()
	if got := peGauge(t, snap, metrics.PEIngestRate); got != inC {
		t.Fatalf("ingest rate = %d tuples/sec, want %d (counter delta over 1s)", got, inC)
	}
	if got := peGauge(t, snap, metrics.PEEgressRate); got != outC {
		t.Fatalf("egress rate = %d tuples/sec, want %d (counter delta over 1s)", got, outC)
	}

	// An idle second decays the gauges to zero — they are rates, not
	// cumulative counters.
	clock.Advance(time.Second)
	idle := p.MetricsSnapshot()
	if got := peGauge(t, idle, metrics.PEIngestRate); got != 0 {
		t.Fatalf("idle ingest rate = %d, want 0", got)
	}
	if got := peGauge(t, idle, metrics.PEEgressRate); got != 0 {
		t.Fatalf("idle egress rate = %d, want 0", got)
	}
}
