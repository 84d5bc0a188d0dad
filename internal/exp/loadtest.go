package exp

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"streamorca/internal/chaos"
	"streamorca/internal/compiler"
	"streamorca/internal/load"
	"streamorca/internal/metrics"
	"streamorca/internal/ops"
	"streamorca/internal/policies"
	"streamorca/internal/wait"
)

func loadtest(p Params) (*Outcome, error) { return runLoad("loadtest", p, 0, 0) }

func chaosLoad(p Params) (*Outcome, error) {
	p.Duration = cmp.Or(p.Duration, 3*time.Second)
	return runLoad("chaos-load", p, 12, stretch(800*time.Millisecond, 2))
}

// addShares adds each part's tuple count and its share of the total to
// a metrics map: the imbalance a Zipf-hot partition shows, and what a
// rebalance (a region resize re-cutting the key space) visibly moves.
func addShares(m map[string]float64, tuples map[string]int64) {
	var total int64
	for _, n := range tuples {
		total += n
	}
	for name, n := range tuples {
		m["tuples_"+name] = float64(n)
		if total > 0 {
			m["share_"+name] = float64(n) / float64(total)
		}
	}
}

// runLoad is the loadtest and chaos-load scenario: an open-loop driver
// offers Zipf-skewed user events at a constant rate (or, with
// Params.Users, closed-loop users pause Think between sends) into a
// checkpointing three-host pipeline (LoadSource -> hash-split over three
// Functor workers -> merge -> LatencySink, with an Aggregate/CountSink
// branch keeping checkpointable state in the graph), and the LatencySink
// meters source-to-sink latency against the intended send instants.
// faults > 0 layers a seeded schedule of that many faults, spread over
// faultWindow, on the run, so recovery shows up as measured
// p999/throughput dips instead of bespoke counters. The seed drives key
// generation, payloads, the fault schedule, and the retry jitter.
func runLoad(name string, p Params, faults int, faultWindow time.Duration) (*Outcome, error) {
	budget := p.budget(60 * time.Second)
	if wait.Race && p.Rate == 0 {
		p.Rate = 500
	}
	p.Rate = cmp.Or(p.Rate, 2000)
	p.Duration = cmp.Or(p.Duration, 2*time.Second)
	p.Think = cmp.Or(p.Think, 10*time.Millisecond)
	p.Keys = cmp.Or(p.Keys, 50000)
	if p.Skew < 0 {
		p.Skew = 1.1
	}
	mode := "open loop"
	if p.Users > 0 {
		mode = fmt.Sprintf("closed loop, %d users, think %v", p.Users, p.Think)
	}
	if p.Rate <= 0 && p.Users <= 0 {
		return nil, fmt.Errorf("%s: need a rate > 0 (open loop) or users > 0 (closed loop)", name)
	}
	if p.Duration <= 0 {
		return nil, fmt.Errorf("%s: need a duration > 0", name)
	}
	const injID, meterID = "load-inj", "load-meter"
	workers := []string{"w0", "w1", "w2"}

	b := compiler.NewApp("LoadTest")
	src := b.AddOperator("src", load.KindLoadSource).Out(eventSchema).Param("injectorId", injID)
	split := b.AddOperator("split", ops.KindSplit).In(eventSchema).Out(eventSchema, eventSchema, eventSchema).
		Param("mode", "hash").Param("attr", "user")
	mrg := b.AddOperator("mrg", ops.KindMerge).In(eventSchema, eventSchema, eventSchema).Out(eventSchema)
	b.Connect(src, 0, split, 0)
	for i, w := range workers {
		// Pass-through Functors: the Functor copies same-named attributes
		// (the ts Timestamp included), so the latency path survives the
		// partitioned hop.
		wh := b.AddOperator(w, ops.KindFunctor).In(eventSchema).Out(eventSchema)
		b.Connect(split, i, wh, 0)
		b.Connect(wh, 0, mrg, i)
	}
	// Duplicate-split tee after the merge: port 0 feeds the latency
	// sink, port 1 the stateful aggregation branch whose windows make
	// the pipeline genuinely checkpointing.
	tee := b.AddOperator("tee", ops.KindSplit).In(eventSchema).Out(eventSchema, eventSchema).
		Param("mode", "duplicate")
	lat := b.AddOperator("lat", load.KindLatencySink).In(eventSchema).
		Param("meterId", meterID).Param("tsAttr", "ts")
	agg := b.AddOperator("agg", ops.KindAggregate).In(eventSchema).Out(aggSchema).
		Param("window", "250ms").Param("valueAttr", "score")
	cnt := b.AddOperator("cnt", ops.KindCountSink).In(aggSchema)
	b.Connect(mrg, 0, tee, 0)
	b.Connect(tee, 0, lat, 0)
	b.Connect(tee, 1, agg, 0)
	b.Connect(agg, 0, cnt, 0)
	app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
	if err != nil {
		return nil, err
	}

	// Retry-budget exhaustions are left to the recovery sweep, as in the
	// chaos scenario.
	r, err := boot(rigSpec{
		name: name, hosts: 3, store: memStore, dir: p.StoreDir,
		metrics: loadBeat, ckptEvery: 2 * loadBeat, retry: faults > 0, seed: p.Seed,
		routine: &policies.Restart{App: app.Name, Submit: true}, app: app,
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	job, err := r.up(budget / 4)
	if err != nil {
		return nil, err
	}

	// The highest per-PE ingest/egress rate gauges seen during the run.
	var maxIn, maxOut int64
	halt := sample(loadBeat, func() {
		for _, j := range r.inst.SAM.Jobs() {
			for _, p := range j.PEs {
				maxIn = max(maxIn, r.counter(p.ID, metrics.PEIngestRate))
				maxOut = max(maxOut, r.counter(p.ID, metrics.PEEgressRate))
			}
		}
	})
	defer halt()

	// Chaos-load: once the pipeline is visibly delivering, inject the
	// seeded schedule while the driver keeps offering, then sweep.
	var fingerprint string
	var injected *chaos.Report
	var shake func(*load.Meter) error
	if faults > 0 {
		shake = func(meter *load.Meter) (err error) {
			if !wait.Until(budget/4, time.Millisecond, func() bool { return meter.Delivered() >= 20 }) {
				return fmt.Errorf("%s: pipeline never warmed up under load", name)
			}
			fingerprint, injected, err = r.shake(p.Seed, faults, faultWindow, nil, len(app.PEs), budget/2)
			return err
		}
	}
	st, err := offer(offerSpec{Params: p, objs: r.inst.SAM.Objects(), injID: injID, meterID: meterID}, budget, shake)
	if err != nil {
		return nil, err
	}
	halt()

	// lost is offered - delivered after the drain: in-flight tuples
	// dropped by killed PEs, per the paper's §5.2 at-most-once semantics.
	offered, delivered := st.Offered, st.meter.Delivered()
	lost := offered - delivered
	var offeredTPS, sustainedTPS float64
	if sec := st.Elapsed.Seconds(); sec > 0 {
		offeredTPS, sustainedTPS = float64(offered)/sec, float64(delivered)/sec
	}
	// Latency is charged against intended send instants
	// (coordinated-omission-correct).
	h := st.meter.Hist
	p50, p99, p999 := ms(h.Quantile(0.5)), ms(h.Quantile(0.99)), ms(h.Quantile(0.999))
	// A chaos run shows its dip in the slowest throughput window.
	rates := st.meter.WindowRates(time.Now())
	var minWindow, maxWindow float64
	if len(rates) > 0 {
		minWindow, maxWindow = slices.Min(rates), slices.Max(rates)
	}
	workerTuples := map[string]int64{}
	for _, w := range workers {
		if pe, err := r.pe(job, w); err == nil {
			workerTuples[w] = r.counter(pe, metrics.PETuplesProcessed)
		}
	}

	if st.Missed > 0 {
		return nil, fmt.Errorf("%s: driver abandoned %d scheduled tuples", name, st.Missed)
	}
	if delivered == 0 || p50 <= 0 || sustainedTPS <= 0 {
		return nil, fmt.Errorf("%s: no latency record: %d delivered, p50 %vms, sustained %v tps",
			name, delivered, p50, sustainedTPS)
	}
	if faults == 0 && lost != 0 {
		return nil, fmt.Errorf("%s: %d tuples lost without chaos", name, lost)
	}

	out := &Outcome{
		// Everything here is wall-clock-independent.
		Deterministic: fmt.Sprintf("seed=%d offered=%d hotKeyShare=%.4f fingerprint=%s",
			p.Seed, offered, st.hotKeyShare, fingerprint),
		OK: name + " OK: sustained the offered load with a full latency record",
	}
	out.printf("offered %.0f tuples/sec for %v (%s): %d offered, %d delivered, %d lost",
		offeredTPS, p.Duration, mode, offered, delivered, lost)
	out.printf("latency ms: p50 %.2f, p99 %.2f, p999 %.2f, max %.2f, mean %.2f",
		p50, p99, p999, ms(h.Max()), ms(h.Mean()))
	out.printf("throughput tuples/sec: sustained %.0f; windows %d (min %.0f, max %.0f); PE gauges max in %d, out %d",
		sustainedTPS, len(rates), minWindow, maxWindow, maxIn, maxOut)
	out.printf("workers: w0=%d w1=%d w2=%d tuples", workerTuples["w0"], workerTuples["w1"], workerTuples["w2"])
	out.Metrics = map[string]float64{
		"delivered":      float64(delivered),
		"lost":           float64(lost),
		"offered_tps":    offeredTPS,
		"sustained_tps":  sustainedTPS,
		"p50_ms":         p50,
		"p99_ms":         p99,
		"p999_ms":        p999,
		"max_ms":         ms(h.Max()),
		"mean_ms":        ms(h.Mean()),
		"min_window_tps": minWindow,
		"max_window_tps": maxWindow,
		"max_ingest_tps": float64(maxIn),
		"max_egress_tps": float64(maxOut),
		"hot_key_share":  st.hotKeyShare,
	}
	if faults > 0 {
		out.printf("schedule fingerprint: %s", fingerprint)
		out.printf("faults applied %d, skipped %d; PEs lost forever 0", injected.Applied, injected.Skipped)
		out.Metrics["faults_applied"] = float64(injected.Applied)
		out.Metrics["faults_skipped"] = float64(injected.Skipped)
	}
	addShares(out.Metrics, workerTuples)
	return out, nil
}
