package exp

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"streamorca/internal/chaos"
	"streamorca/internal/compiler"
	"streamorca/internal/load"
	"streamorca/internal/metrics"
	"streamorca/internal/ops"
	"streamorca/internal/policies"
	"streamorca/internal/tuple"
	"streamorca/internal/workload"
)

func loadtest(p Params) (*Outcome, error) { return runLoad("loadtest", p, 0, 0) }

func chaosLoad(p Params) (*Outcome, error) {
	p.Duration = cmp.Or(p.Duration, 3*time.Second)
	return runLoad("chaos-load", p, 12, stretch(800*time.Millisecond, 2))
}

// eventSchema is the keyed user event the load and fission pipelines
// carry; ts is stamped by the driver with the intended send instant.
var eventSchema = tuple.MustSchema(
	tuple.Attribute{Name: "user", Type: tuple.String},
	tuple.Attribute{Name: "seq", Type: tuple.Int},
	tuple.Attribute{Name: "score", Type: tuple.Float},
	tuple.Attribute{Name: "ts", Type: tuple.Timestamp},
)

// eventMaker returns the seeded event generator for a Zipf key space,
// and the key generator's analytic top-1% traffic share.
func eventMaker(seed int64, keys int, skew float64) (func(i int64) tuple.Tuple, float64) {
	gen := workload.NewKeyGen(workload.KeyConfig{Seed: seed, N: keys, Skew: skew})
	payload := rand.New(rand.NewSource(seed + 1))
	user, seq, score := eventSchema.MustRef("user"), eventSchema.MustRef("seq"), eventSchema.MustRef("score")
	return func(i int64) tuple.Tuple {
		t := tuple.New(eventSchema)
		user.SetStr(t, gen.Next())
		seq.SetInt(t, i)
		score.SetFloat(t, payload.Float64()*100)
		return t
	}, gen.TopShare(0.01)
}

// addShares adds each part's tuple count and its share of the total to
// a report: the imbalance a Zipf-hot partition shows, and what a
// rebalance (a region resize re-cutting the key space) visibly moves.
func addShares(rep *load.Report, tuples map[string]int64) {
	var total int64
	for _, n := range tuples {
		total += n
	}
	for name, n := range tuples {
		rep.Metrics["tuples_"+name] = float64(n)
		if total > 0 {
			rep.Metrics["share_"+name] = float64(n) / float64(total)
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
	var (
		rate     = cmp.Or(p.Rate, 2000)
		duration = cmp.Or(p.Duration, 2*time.Second)
		think    = cmp.Or(p.Think, 10*time.Millisecond)
		keys     = cmp.Or(p.Keys, 50000)
		skew     = p.Skew
		// beat is the HC push period; the run samples the per-PE rate
		// gauges and paces its drain at the same cadence.
		beat   = stretch(25*time.Millisecond, 2)
		budget = p.budget(60 * time.Second)
	)
	if raceEnabled && p.Rate == 0 {
		rate = 500
	}
	if p.Users > 0 {
		rate = 0
	}
	if skew < 0 {
		skew = 1.1
	}
	if rate <= 0 && p.Users <= 0 {
		return nil, fmt.Errorf("%s: need a rate > 0 (open loop) or users > 0 (closed loop)", name)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("%s: need a duration > 0", name)
	}
	injID, meterID := uniq("load-inj"), uniq("load-meter")
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
		metrics: beat, ckptEvery: 2 * beat, retry: faults > 0, seed: p.Seed,
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

	mk, hotKeyShare := eventMaker(p.Seed, keys, skew)
	inj, meter := load.InjectorFor(injID), load.MeterFor(meterID)
	meter.Arm(time.Now(), 200*time.Millisecond)
	// The highest per-PE ingest/egress rate gauges seen during the run.
	var maxIn, maxOut int64
	halt := sample(beat, func() {
		for _, j := range r.inst.SAM.Jobs() {
			for _, p := range j.PEs {
				maxIn = max(maxIn, r.counter(p.ID, metrics.PEIngestRate))
				maxOut = max(maxOut, r.counter(p.ID, metrics.PEEgressRate))
			}
		}
	})
	defer halt()

	driveStop := make(chan struct{})
	stopTimer := time.AfterFunc(budget, func() { close(driveStop) })
	defer stopTimer.Stop()
	var st load.Stats
	var driveErr error
	driveDone := make(chan struct{})
	go func() {
		defer close(driveDone)
		if p.Users > 0 {
			st, driveErr = load.RunClosedLoop(load.ClosedLoopConfig{
				Injector: inj, Make: mk, TsAttr: "ts",
				Users: p.Users, Think: think, Duration: duration,
				Stop: driveStop,
			})
		} else {
			st, driveErr = load.RunOpenLoop(load.OpenLoopConfig{
				Injector: inj, Make: mk, TsAttr: "ts",
				Rate: rate, Duration: duration,
				Stop: driveStop,
			})
		}
	}()

	// Chaos-load: once the pipeline is visibly delivering, inject the
	// seeded schedule while the driver keeps offering, then sweep.
	var fingerprint string
	var injected *chaos.Report
	if faults > 0 {
		if !waitUntil(budget/4, time.Millisecond, func() bool { return meter.Delivered() >= 20 }) {
			return nil, fmt.Errorf("%s: pipeline never warmed up under load", name)
		}
		if fingerprint, injected, err = r.shake(p.Seed, faults, faultWindow, nil, len(app.PEs), budget/2); err != nil {
			return nil, err
		}
	}

	<-driveDone
	if driveErr != nil {
		return nil, driveErr
	}
	// All pushes returned; close the stream and let the pipeline drain.
	inj.Close()
	drain(meter, st.Offered, beat, budget/4)
	halt()

	// lost is offered - delivered after the drain: in-flight tuples
	// dropped by killed PEs, per the paper's §5.2 at-most-once semantics.
	offered, delivered := st.Offered, meter.Delivered()
	lost := offered - delivered
	var offeredTPS, sustainedTPS float64
	if sec := st.Elapsed.Seconds(); sec > 0 {
		offeredTPS, sustainedTPS = float64(offered)/sec, float64(delivered)/sec
	}
	// Latency is charged against intended send instants
	// (coordinated-omission-correct).
	h := meter.Hist
	p50, p99, p999 := ms(h.Quantile(0.5)), ms(h.Quantile(0.99)), ms(h.Quantile(0.999))
	// A chaos run shows its dip in the slowest throughput window.
	rates := meter.WindowRates(time.Now())
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
			p.Seed, offered, hotKeyShare, fingerprint),
		OK: name + " OK: sustained the offered load with a full latency record",
	}
	out.printf("offered %.0f tuples/sec for %v: %d offered, %d delivered, %d lost",
		rate, duration, offered, delivered, lost)
	out.printf("latency ms: p50 %.2f, p99 %.2f, p999 %.2f, max %.2f, mean %.2f",
		p50, p99, p999, ms(h.Max()), ms(h.Mean()))
	out.printf("throughput tuples/sec: sustained %.0f; windows %d (min %.0f, max %.0f); PE gauges max in %d, out %d",
		sustainedTPS, len(rates), minWindow, maxWindow, maxIn, maxOut)
	out.printf("workers: w0=%d w1=%d w2=%d tuples", workerTuples["w0"], workerTuples["w1"], workerTuples["w2"])
	// Deterministic facts (config echo, schedule fingerprint, offered
	// count) go in Meta; wall-clock-dependent measurements in Metrics.
	rep := &load.Report{
		Name: name,
		Seed: p.Seed,
		Meta: map[string]string{
			"rate":     strconv.FormatFloat(rate, 'f', -1, 64),
			"duration": duration.String(),
			"keys":     strconv.Itoa(keys),
			"skew":     strconv.FormatFloat(skew, 'f', -1, 64),
			"offered":  strconv.FormatInt(offered, 10),
		},
		Metrics: map[string]float64{
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
			"hot_key_share":  hotKeyShare,
		},
	}
	if p.Users > 0 {
		rep.Meta["users"] = strconv.Itoa(p.Users)
		rep.Meta["think"] = think.String()
	}
	if faults > 0 {
		out.printf("schedule fingerprint: %s", fingerprint)
		out.printf("faults applied %d, skipped %d; PEs lost forever 0", injected.Applied, injected.Skipped)
		rep.Meta["fingerprint"] = fingerprint
		rep.Metrics["faults_applied"] = float64(injected.Applied)
		rep.Metrics["faults_skipped"] = float64(injected.Skipped)
	}
	addShares(rep, workerTuples)
	out.Report = rep
	return out, nil
}
