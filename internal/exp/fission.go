package exp

import (
	"cmp"
	"fmt"
	"time"

	"streamorca/internal/compiler"
	"streamorca/internal/load"
	"streamorca/internal/metrics"
	"streamorca/internal/policies"
)

// fissionScale sizes the capacity half of the fission scenario; tests
// shrink it.
type fissionScale struct {
	// probeRate is the deliberately oversubscribing offered rate of the
	// capacity probes, probeDuration its schedule length. The probe
	// measures sustained (delivered) throughput, not offered.
	probeRate     float64
	probeDuration time.Duration
	// maxWidth caps the region (and is the wide probe's width);
	// minSpeedup is the required sustained-throughput ratio between the
	// maxWidth and width-1 probes.
	maxWidth   int
	minSpeedup float64
}

const (
	// fissionWorkDelay is the KeyedWorker's per-tuple service time — the
	// capacity ceiling one replica has and added replicas multiply
	// (being a wait, not a CPU burn, the multiplication holds even on a
	// single-core machine: parallel replicas overlap their waits).
	fissionWorkDelay = time.Millisecond
	// fissionAdaptFactor sets the adaptive phase's offered rate, and
	// fissionWidenFraction the routine's WidenAboveRate, as multiples of
	// the measured width-1 capacity.
	fissionAdaptFactor   = 1.5
	fissionWidenFraction = 0.5
)

func fission(p Params) (*Outcome, error) {
	return runFission(p, fissionScale{probeRate: 5000, probeDuration: 400 * time.Millisecond, maxWidth: 3, minSpeedup: 1.5})
}

// driveFission boots source -> KeyedWorker region (width) -> latency
// sink on spec's platform (whose routine must submit application
// "Fission"), offers p.Rate tuples/sec of seeded keys for p.Duration,
// closes the stream and drains. The platform is returned still up, for
// inspection; the caller closes it.
func driveFission(p Params, spec rigSpec, width int) (*rig, *offering, error) {
	injID, meterID := uniq("fission-inj"), uniq("fission-meter")
	b := compiler.NewApp("Fission")
	src := b.AddOperator("src", load.KindLoadSource).Out(eventSchema).Param("injectorId", injID)
	work := b.AddOperator("work", load.KindKeyedWorker).In(eventSchema).Out(eventSchema).
		Param("keyAttr", "user").Param("delay", fissionWorkDelay.String()).
		Parallel(width)
	lat := b.AddOperator("lat", load.KindLatencySink).In(eventSchema).
		Param("meterId", meterID).Param("tsAttr", "ts")
	b.Connect(src, 0, work, 0)
	b.Connect(work, 0, lat, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		return nil, nil, err
	}
	spec.name, spec.hosts, spec.app = "fission", 3, app
	r, err := boot(spec)
	if err != nil {
		return nil, nil, err
	}
	budget := p.budget(60 * time.Second)
	if _, err := r.up(budget / 8); err != nil {
		r.close()
		return nil, nil, err
	}
	o, err := offer(offerSpec{Params: p, injID: injID, meterID: meterID}, budget/4, nil)
	if err != nil {
		r.close()
		return nil, nil, err
	}
	return r, o, nil
}

// fissionProbe saturates a fixed-width pipeline on a skew-free
// workload and returns its sustained throughput.
func fissionProbe(p Params, scale fissionScale, width int) (float64, error) {
	p.Rate, p.Duration, p.Skew = scale.probeRate, scale.probeDuration, 0
	r, run, err := driveFission(p, rigSpec{routine: &policies.Restart{App: "Fission", Submit: true}}, width)
	if err != nil {
		return 0, err
	}
	defer r.close()
	delivered := run.meter.Delivered()
	if delivered == 0 {
		return 0, fmt.Errorf("fission: width-%d probe delivered nothing", width)
	}
	// From pipeline-up to the last observed delivery.
	elapsed := run.lastAt.Sub(run.start)
	if elapsed <= 0 {
		return 0, fmt.Errorf("fission: width-%d probe too fast to measure", width)
	}
	return float64(delivered) / elapsed.Seconds(), nil
}

// runFission is the fission scenario — the adaptation showcase. The run
// has two halves:
//
//   - Capacity probes: the same pipeline (open-loop source -> a
//     key-partitioned KeyedWorker region -> latency sink) is driven to
//     saturation on a skew-free workload at width 1 and again at width
//     maxWidth, establishing that replicas multiply the region's
//     capacity ceiling.
//   - Adaptive phase: the region starts at width 1 under a Zipf-skewed
//     load offered above its capacity, and a policies.Fission routine —
//     not the dataplane — watches the region's ingress rate gauge and
//     actuates ResizeRegion through its Threshold/Debounce gate. The
//     region's per-key state rides the width changes through snapshot
//     migration.
//
// The capacity and adaptation assertions are enforced here, so a passing
// run is the demonstration.
func runFission(p Params, scale fissionScale) (*Outcome, error) {
	if scale.maxWidth < 2 {
		return nil, fmt.Errorf("fission: max width %d < 2 proves nothing", scale.maxWidth)
	}
	p.Keys = cmp.Or(p.Keys, 20000)
	if p.Skew < 0 {
		p.Skew = 1.1
	}
	w1, err := fissionProbe(p, scale, 1)
	if err != nil {
		return nil, err
	}
	wide, err := fissionProbe(p, scale, scale.maxWidth)
	if err != nil {
		return nil, err
	}
	speedup := wide / w1
	if speedup < scale.minSpeedup {
		return nil, fmt.Errorf("fission: width %d sustained only %.2fx width 1 (%.0f vs %.0f tps), need >= %.2fx",
			scale.maxWidth, speedup, wide, w1, scale.minSpeedup)
	}

	// Adaptive phase: width 1 under a skewed overload, a checkpointing
	// platform (so resizes migrate real per-key state), and the Fission
	// routine deciding when to widen.
	widenAbove, adaptRate := int64(fissionWidenFraction*w1), fissionAdaptFactor*w1
	policy := &policies.Fission{
		App: "Fission", Region: "work",
		MaxWidth:       scale.maxWidth,
		WidenAboveRate: widenAbove,
		Cooldown:       8 * loadBeat,
	}
	p.Rate, p.Duration = adaptRate, cmp.Or(p.Duration, 2*time.Second)
	r, run, err := driveFission(p,
		rigSpec{store: memStore, metrics: loadBeat, ckptEvery: 2 * loadBeat, routine: policy}, 1)
	if err != nil {
		return nil, err
	}
	defer r.close()

	// lost is expected to be non-zero: every resize drops the region's
	// in-flight tuples (§5.2 at-most-once semantics).
	delivered := run.meter.Delivered()
	lost := run.Offered - delivered
	p50, p99 := ms(run.meter.Hist.Quantile(0.5)), ms(run.meter.Hist.Quantile(0.99))
	widenings, log := policy.Widenings(), policy.Log()
	finalWidth, _ := r.svc.RegionWidth(policy.Job(), "work")
	// What each final-width replica processed since it (re)started at the
	// last resize.
	replicaTuples := map[string]int64{}
	if resized, ok := r.inst.SAM.JobADL(policy.Job()); ok {
		if region := resized.Region("work"); region != nil {
			for _, rep := range region.Replicas {
				if pe, err := r.pe(policy.Job(), rep); err == nil {
					replicaTuples[rep] = r.counter(pe, metrics.PETuplesProcessed)
				}
			}
		}
	}

	if delivered == 0 {
		return nil, fmt.Errorf("fission: adaptive phase delivered nothing")
	}
	if widenings < 1 || finalWidth < 2 {
		return nil, fmt.Errorf("fission: routine never widened the region (width %d, ingress threshold %d tps, offered %.0f tps)",
			finalWidth, widenAbove, adaptRate)
	}

	out := &Outcome{
		// Workload and decision inputs are seed-derived; wall-clock
		// measurements are reported separately.
		Deterministic: fmt.Sprintf("seed=%d keys=%d skew=%.2f hotKeyShare=%.4f region=work maxWidth=%d workDelay=%s",
			p.Seed, p.Keys, p.Skew, run.hotKeyShare, scale.maxWidth, fissionWorkDelay),
		OK: "fission OK: the adaptation routine, not the dataplane, widened the region under load",
	}
	out.printf("capacity: width 1 sustained %.0f tps, width %d sustained %.0f tps, speedup %.2fx",
		w1, scale.maxWidth, wide, speedup)
	out.printf("adaptive: routine widened %d time(s) to width %d (ingress threshold %d tps, offered %.0f tps)",
		widenings, finalWidth, widenAbove, adaptRate)
	for _, c := range log {
		out.printf("  width %d -> %d at ingress %d tps (queue depth %d)", c.From, c.To, c.IngestPerSec, c.QueueDepth)
	}
	out.printf("adaptive delivery: %d offered, %d delivered, %d lost in flight; latency p50 %.2fms p99 %.2fms",
		run.Offered, delivered, lost, p50, p99)
	out.Metrics = map[string]float64{
		"w1_sustained_tps":   w1,
		"wide_sustained_tps": wide,
		"speedup_x":          speedup,
		"widen_above_tps":    float64(widenAbove),
		"adapt_offered_tps":  adaptRate,
		"adaptive_widenings": float64(widenings),
		"final_width":        float64(finalWidth),
		"delivered":          float64(delivered),
		"lost":               float64(lost),
		"p50_ms":             p50,
		"p99_ms":             p99,
	}
	addShares(out.Metrics, replicaTuples)
	return out, nil
}
