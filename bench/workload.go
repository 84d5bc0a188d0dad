package main

import (
	"fmt"
	"time"

	"streamorca/internal/compiler"
	"streamorca/internal/ids"
	"streamorca/internal/load"
)

// result is what one run of one workload reports.
type result struct {
	metrics   map[string]float64
	attempted int64 // offered tuples plus adaptation cycles
	failed    int64
	errs      []string
	notes     []string // observations that are not failures (generator-bound, ...)
}

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// finish folds the run's cycle accounting and the reference check into
// the result.
func (res *result) finish(r *run) {
	v := r.verify()
	res.attempted += v.offered + int64(r.cycles)
	res.failed += v.bad + int64(r.failed)
	res.errs = append(res.errs, v.errs...)
	res.errs = append(res.errs, r.errs...)
	if n := r.j.rt.strayFailure.Load(); n > 0 {
		res.failed += n
		res.errs = append(res.errs, fmt.Sprintf("%d PE failures outside the kill cycles", n))
	}
}

// closedLoop runs one discarded warm-up segment and n measured ones.
// before and after, when set, bracket each measured segment.
func (r *run) closedLoop(n int, d time.Duration, before, after func(i int)) ([]segment, error) {
	if _, err := r.saturate(d); err != nil {
		return nil, err
	}
	segs := make([]segment, 0, n)
	for i := 0; i < n; i++ {
		if before != nil {
			before(i)
		}
		sp := r.tr.begin(fmt.Sprintf("sat.segment[%d]", i), -1)
		seg, err := r.saturate(d)
		r.tr.end(sp)
		if after != nil {
			after(i)
		}
		if err != nil {
			return segs, err
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// windowP99 is the median over open-loop windows of each window's p99,
// in nanoseconds.
func windowP99(windows []*load.Histogram) float64 {
	return windowMedian(windows, func(h *load.Histogram) time.Duration { return h.Quantile(0.99) })
}

// checkPaced flags an open-loop phase whose numbers say more about the
// generator than about the system.
func (res *result) checkPaced(pr pacedResult) {
	p99 := windowP99(pr.rec.due)
	if lag := float64(pr.lag.Quantile(0.99)); lag > p99 {
		res.note("generator-bound: load.gen_lag_p99 %.3f ms exceeds lat_p99_ms %.3f", lag/1e6, p99/1e6)
	}
}

// checkRouting compares, on a keyed workload, the replicas' counters
// with the reference partitioning.
func (res *result) checkRouting(r *run) {
	if !r.w.keyed() {
		return
	}
	if err := r.checkReplicas(); err != nil {
		res.failed++
		res.errs = append(res.errs, err.Error())
	}
}

// runEndToEnd is the untraced run: it produces every end-to-end metric.
func runEndToEnd(w *workloadDef, seed int64, p plan) (*result, error) {
	in := newInputs(seed)
	res := &result{metrics: map[string]float64{}}
	var (
		setups   []float64
		segs     []segment
		windows  []*load.Histogram
		events   []float64
		recovers []float64
	)
	// incarnation takes one fresh job through every phase and pools its
	// samples with the others'.
	incarnation := func() error {
		// Set-up is cheap next to the phases, so each incarnation is set
		// up several times and only the last kept.
		for k := 1; k < p.setups; k++ {
			j, st, err := startJob(w, false, nil)
			if err != nil {
				return err
			}
			j.close()
			setups = append(setups, st.total/1e3)
		}
		j, st, err := startJob(w, true, nil)
		if err != nil {
			return err
		}
		defer j.close()
		setups = append(setups, st.total/1e3)
		r := &run{w: w, in: in, j: j}

		s, err := r.closedLoop(p.segments, p.segment, nil, nil)
		if err != nil {
			return err
		}
		segs = append(segs, s...)
		pr, err := r.paced(rateRef, p.warm, p.windows, p.window)
		if err != nil {
			return err
		}
		windows = append(windows, pr.rec.due...)
		res.checkPaced(pr)
		ev, err := r.eventSegments(p.eventSegs, p.eventSeg)
		if err != nil {
			return err
		}
		events = append(events, ev...)
		res.checkRouting(r)

		recovers = append(recovers, r.killCycles(p.kills, p.killEvery).recoverMs...)
		if w.keyed() {
			r.resizeCycles(p.resizes, p.resizeEvery)
		}
		res.finish(r)
		return nil
	}
	for i := 0; i < p.incarnations; i++ {
		if err := incarnation(); err != nil {
			return nil, fmt.Errorf("incarnation %d: %w", i, err)
		}
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["throughput_tps"] = medianOf(segs, segment.tps)
	res.metrics["cpu_ns_per_tuple"] = medianOf(segs, segment.cpuNs)
	res.metrics["alloc_bytes_per_tuple"] = medianOf(segs, segment.allocBytes)
	res.metrics["lat_p99_ms"] = windowP99(windows) / 1e6
	res.metrics["event_tps"] = median(events)
	res.metrics["recover_ms"] = median(recovers)
	return res, nil
}

// timesUs runs f n times and returns the median duration in microseconds.
func timesUs(n int, f func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = durUs(time.Since(t0))
	}
	return median(xs), nil
}

// controlPlaneProbes times the calls an observing routine and the HCs
// make, on the idle job.
func (r *run) controlPlaneProbes(out map[string]float64) error {
	const reps = 21
	j := r.j
	var err error
	if out["srm.flush_us"], err = timesUs(reps, func() error { j.inst.FlushMetrics(); return nil }); err != nil {
		return err
	}
	if out["srm.query_us"], err = timesUs(reps, func() error { j.inst.SRM.Query([]ids.JobID{j.id}); return nil }); err != nil {
		return err
	}
	if out["core.pull_us"], err = timesUs(reps, func() error { j.svc.PullMetricsNow(); return nil }); err != nil {
		return err
	}
	if r.w.ckptEvery > 0 {
		pe, ok := j.svc.PEOfOperator(j.id, regionName+"/0")
		if !ok {
			return fmt.Errorf("no PE hosts %s/0", regionName)
		}
		if out["sam.checkpoint_pe_us"], err = timesUs(reps, func() error { return j.svc.CheckpointPE(pe) }); err != nil {
			return err
		}
	}
	// One user event at a time: raise, wait for the handler. The flood
	// of the events phase would measure its own window instead.
	lat := load.NewHistogram()
	j.rt.eventLat.Store(lat)
	defer j.rt.eventLat.Store(nil)
	for i := 0; i < 2000; i++ {
		want := j.rt.events.Load() + 1
		j.svc.RaiseUserEvent(userEvent, nil)
		if err := waitFor(waitDeadline, "a user event to be handled", func() bool { return j.rt.events.Load() >= want }); err != nil {
			return err
		}
	}
	out["core.event_p50_us"] = durUs(lat.Quantile(0.5))
	return nil
}

// attribution adds up, per tuple, the probes along the workload's path:
// the ingest job's CPU up to the sink's inlet, plus what each further
// stage adds. What is left of cpu_ns_per_tuple is what probes from
// outside cannot see: queue waits, wake-ups, scheduling, the sink's check.
func attribution(w *workloadDef, out map[string]float64, ingestCPU float64) float64 {
	crossPE := out["transport.hop_ns"] + out["pe.batch_inlet_ns"]
	switch {
	case w.graph == chainGraph && w.fusion == compiler.FuseAll:
		return ingestCPU + 2*(out["pe.fused_hop_ns"]+out["ops.functor_ns"])
	case w.graph == chainGraph:
		return ingestCPU + 2*(crossPE+out["ops.functor_batch_ns"])
	default: // split, replica, merge
		return ingestCPU + 3*crossPE + out["ops.split_ns"] + out["ops.keyedworker_ns"] + out["ops.merge_ns"]
	}
}

// runPerLayer is the traced run: the layer probes, then the same phases
// as the untraced run, shortened, with the sampler reading the live
// counters and a span around every call the harness makes into a layer.
// It produces every per-layer metric and writes the trace file.
func runPerLayer(w *workloadDef, seed int64, p plan, outDir string) (*result, error) {
	in := newInputs(seed)
	res := &result{metrics: map[string]float64{}}
	out := res.metrics
	for _, m := range perLayer {
		out[m.name] = 0 // a layer the workload does not use reads 0
	}

	ts := probeTuples(in)
	if err := probeTupleLayer(in, ts, out); err != nil {
		return nil, err
	}
	probeTransport(ts, out)
	replica, err := probeOps(in, ts, out)
	if err != nil {
		return nil, err
	}
	if err := probePELayer(ts, out["ops.functor_ns"], out); err != nil {
		return nil, err
	}
	if err := probeCkpt(replica, out); err != nil {
		return nil, err
	}
	ing, err := probeIngest(w, in, p.segment*3/10)
	if err != nil {
		return nil, err
	}
	out["load.ingest_ceiling_tps"] = ing.ceilingTps

	tr := newTracer("traced")
	j, st, err := startJob(w, true, tr)
	if err != nil {
		return nil, err
	}
	defer j.close()
	out["compiler.build_ms"] = st.build
	out["sam.submit_ms"] = st.submit
	r := &run{w: w, in: in, j: j, tr: tr}

	// Closed loop, alternating segments with the sampler on and off: the
	// difference is what tracing costs, and the untraced half is what
	// the attribution is held against.
	var smp *sampler
	var samples []sample
	segs, err := r.closedLoop(p.segments, p.segment,
		func(i int) {
			if i%2 == 0 {
				smp = startSampler(j, tr)
			}
		},
		func(i int) {
			if i%2 == 0 {
				samples = append(samples, smp.halt()...)
			}
		})
	if err != nil {
		return nil, err
	}
	var on, off []segment
	for i, s := range segs {
		if i%2 == 0 {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	tps, cpuNs := medianOf(off, segment.tps), medianOf(off, segment.cpuNs)
	out["bench.trace_overhead_frac"] = 1 - medianOf(on, segment.tps)/tps
	if ing.ceilingTps < 1.2*tps {
		res.note("bottleneck=ingest: load.ingest_ceiling_tps %.0f is within 20%% of throughput_tps %.0f", ing.ceilingTps, tps)
	}

	// Open loop at the reference rate, sampled throughout.
	before, t0 := j.totals(), time.Now()
	smp = startSampler(j, tr)
	phase := tr.begin("paced", -1)
	pr, err := r.paced(rateRef, p.warm, p.windows, p.window)
	tr.end(phase)
	pacedSamples := smp.halt()
	if err != nil {
		return nil, err
	}
	after, elapsed := j.totals(), time.Since(t0).Seconds()
	for w := range pr.rec.due {
		at := pr.rec.start.Add(time.Duration(w) * p.window)
		tr.add(fmt.Sprintf("paced.window[%d]", w), phase, at, at.Add(p.window))
	}
	res.checkPaced(pr)
	out["load.gen_lag_p50_us"] = durUs(pr.lag.Quantile(0.5))
	out["load.gen_lag_p99_us"] = durUs(pr.lag.Quantile(0.99))
	out["load.lat_mean_us"] = windowMedian(pr.rec.due, (*load.Histogram).Mean) / 1e3
	out["load.transit_p50_us"] = durUs(pr.rec.transit.Quantile(0.5))
	out["load.transit_p99_us"] = durUs(pr.rec.transit.Quantile(0.99))
	for _, op := range queueOps {
		var sum, peak float64
		for _, s := range pacedSamples {
			d := float64(s.Queue[op])
			sum += d
			peak = max(peak, d)
		}
		if len(pacedSamples) > 0 {
			out["pe.queue_mean."+op] = sum / float64(len(pacedSamples))
		}
		out["pe.queue_max."+op] = peak
	}
	if after.tuplesSubmitted > 0 {
		out["transport.bytes_per_tuple"] = float64(after.bytesSubmitted) / float64(after.tuplesSubmitted)
	}
	out["pe.dropped"] = float64(after.dropped)
	out["ckpt.count"] = float64(after.checkpoints)
	out["ckpt.bytes_per_s"] = float64(after.checkpointBytes-before.checkpointBytes) / elapsed
	if w.keyed() {
		counts, err := r.replicaCounts()
		if err != nil {
			return nil, err
		}
		var total, most int64
		for _, c := range counts {
			total += c
			most = max(most, c)
		}
		out["ops.split_skew"] = float64(most) * float64(len(counts)) / float64(total)
	}
	res.checkRouting(r)

	if err := r.controlPlaneProbes(out); err != nil {
		return nil, err
	}

	ks := r.killCycles(p.kills, p.killEvery)
	out["core.detect_us"] = median(ks.detectUs)
	out["sam.restart_us"] = median(ks.restartUs)
	out["bench.resume_us"] = median(ks.resumeUs)
	out["sam.lost_per_kill"] = float64(r.lostIn(ks.lost)) / float64(p.kills)
	if w.keyed() {
		rs := r.resizeCycles(p.resizes, p.resizeEvery)
		out["sam.resize_ms"] = median(rs.resizeMs)
		out["sam.lost_per_resize"] = float64(r.lostIn(rs.lost)) / float64(p.resizes)
	}

	sp := tr.begin("sam.cancel", -1)
	t0 = time.Now()
	err = j.svc.CancelJob(j.id)
	out["sam.cancel_ms"] = durMs(time.Since(t0))
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sum := attribution(w, out, ing.cpuNs)
	out["bench.attrib_sum_ns"] = sum
	out["bench.attrib_residual_frac"] = 1 - sum/cpuNs

	res.finish(r)
	path, err := writeTrace(outDir, traceFile{Workload: w.name, Seed: seed, Spans: tr.spans, Samples: append(samples, pacedSamples...)})
	if err != nil {
		return nil, err
	}
	res.note("trace written to %s", path)
	return res, nil
}
