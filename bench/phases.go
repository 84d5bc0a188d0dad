package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"streamorca/internal/load"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

const (
	// rateRef is the one fixed offered rate of the paced latency phase.
	rateRef = 200000
	// rateBackground is the steady paced load the adaptation phases run
	// under.
	rateBackground = 50000
	// pacerSpin is how close to a due instant the latency-phase pacer
	// stops sleeping and starts yielding.
	pacerSpin = 2 * time.Millisecond
	// recoverLimit is how long a kill or resize cycle may take to carry
	// tuples again before it counts as failed.
	recoverLimit = time.Second
	// eventWindow bounds the user events raised but not yet handled, so
	// the flood measures the service's rate and not its queue's growth.
	eventWindow = 512
)

// plan sizes one run: a number of incarnations of the job, each set up
// from scratch and taken through every phase. Every unit (segment,
// window, cycle) and every incarnation has a fixed size; --seconds
// decides how many incarnations there are, so each reported median is
// over more units in a longer run, never over shorter ones.
//
// Several short incarnations rather than one long one, because how the
// goroutines of one incarnation happen to pair up on two cores moves its
// throughput and its recovery time by a fifth and more for as long as it
// lives: a run reports the median over incarnations, not one
// incarnation's luck. The set-ups are the samples of setup_s.
type plan struct {
	incarnations int

	// Per incarnation:
	setups      int // set-ups timed; the last one is kept and measured on
	segments    int // closed-loop segments after one discarded warm-up segment
	segment     time.Duration
	windows     int // open-loop windows after the warm-up
	window      time.Duration
	warm        time.Duration // open-loop warm-up
	eventSegs   int
	eventSeg    time.Duration
	kills       int
	killEvery   time.Duration
	resizes     int // ResizeRegion calls, alternating 3 and 2; even
	resizeEvery time.Duration
}

// planFor sizes a run of the given length: an incarnation takes a little
// over three seconds. The traced run has one incarnation with longer
// phases and more cycles, beside the layer probes.
func planFor(seconds int, traced bool) plan {
	s := float64(seconds)
	atLeast := func(min int, x float64) int { return max(min, int(math.Round(x))) }
	p := plan{
		incarnations: atLeast(2, s*0.32),
		setups:       4,
		segments:     3,
		segment:      250 * time.Millisecond,
		windows:      1,
		window:       time.Second,
		warm:         250 * time.Millisecond,
		eventSegs:    2,
		eventSeg:     100 * time.Millisecond,
		kills:        25,
		killEvery:    10 * time.Millisecond,
		resizes:      4,
		resizeEvery:  50 * time.Millisecond,
	}
	if traced {
		p.incarnations = 1
		p.setups = 1
		p.segments = 2 * atLeast(2, s*0.12) // half with the sampler on, half with it off
		p.segment = time.Second
		p.windows = atLeast(3, s*0.16)
		p.warm = time.Second
		p.kills = atLeast(10, s*4)
		p.resizes = 2 * atLeast(2, s*0.2)
	}
	return p
}

// span of offered sequence numbers [lo, hi) one phase pushed.
type seqRange struct{ lo, hi int64 }

// run is one workload's measured incarnation and the single load driver
// that feeds it.
type run struct {
	w  *workloadDef
	in *inputs
	j  *job
	tr *tracer

	next  int64 // next offered seq
	block []tuple.Tuple

	strict []seqRange // ranges that must arrive whole (closed and open loop)
	cycles int        // kill and resize cycles attempted
	failed int        // of those, actuation errors and recoveries past recoverLimit
	errs   []string
}

// tuple builds the next offered tuple. A zero due leaves ts unset, which
// tells the sink not to record a latency for it.
func (r *run) tuple(due, sent time.Time) tuple.Tuple {
	if len(r.block) == 0 {
		r.block = tuple.NewBlock(eventSchema, 64)
	}
	t := r.block[0]
	r.block = r.block[1:]
	r.in.fill(t, r.next)
	r.next++
	if !due.IsZero() {
		tsRef.SetTime(t, due)
	}
	if !sent.IsZero() {
		sentRef.SetTime(t, sent)
	}
	return t
}

// segment is one closed-loop measurement unit.
type segment struct {
	tuples int64
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
}

func (s segment) tps() float64        { return float64(s.tuples) / s.wall.Seconds() }
func (s segment) cpuNs() float64      { return float64(s.cpu.Nanoseconds()) / float64(s.tuples) }
func (s segment) allocBytes() float64 { return float64(s.alloc) / float64(s.tuples) }

// saturate pushes as fast as back-pressure allows for d, then waits for
// the sink to have received every tuple pushed; the segment ends there.
func (r *run) saturate(d time.Duration) (segment, error) {
	sink := r.j.sink
	lo := r.next
	base := sink.count.Load()
	runtime.GC() // start every segment from the same heap state
	a0, c0, t0 := allocated(), cpuTime(), time.Now()
	deadline := t0.Add(d)
	for time.Now().Before(deadline) {
		for k := 0; k < 64; k++ {
			r.j.inj.Push(r.tuple(time.Time{}, time.Time{}), nil)
		}
	}
	n := r.next - lo
	err := waitFor(waitDeadline, "the closed-loop segment to drain", func() bool { return sink.count.Load() >= base+n })
	seg := segment{tuples: n, wall: time.Since(t0), cpu: cpuTime() - c0, alloc: allocated() - a0}
	r.strict = append(r.strict, seqRange{lo, r.next})
	return seg, err
}

// pacedResult is one open-loop phase.
type pacedResult struct {
	rec *latRecorder
	lag *load.Histogram // sent - due over the measured windows
}

// paced offers rate tuples/s on the pacer's schedule for a warm-up and
// then the given number of measured windows, stamping ts with the due
// instant and sent with the actual one, then waits for the sink to have
// received them all.
func (r *run) paced(rate float64, warm time.Duration, windows int, window time.Duration) (pacedResult, error) {
	sink := r.j.sink
	lo := r.next
	base := sink.count.Load()
	start := time.Now().Add(5 * time.Millisecond)
	warmEnd := start.Add(warm)
	res := pacedResult{rec: newLatRecorder(warmEnd, window, windows), lag: load.NewHistogram()}
	sink.lat.Store(res.rec)
	defer sink.lat.Store(nil)
	p := newPacer(start, rate, pacerSpin)
	n := int64(rate * (warm + time.Duration(windows)*window).Seconds())
	offered := p.run(n, nil, func(_ int64, due, sent time.Time) bool {
		if !due.Before(warmEnd) {
			res.lag.Record(sent.Sub(due))
		}
		return r.j.inj.Push(r.tuple(due, sent), nil)
	})
	err := waitFor(waitDeadline, "the open-loop phase to drain", func() bool { return sink.count.Load() >= base+offered })
	r.strict = append(r.strict, seqRange{lo, r.next})
	return res, err
}

// background is the steady paced load the adaptation phases run under.
// Its tuples carry sent stamps for the arrival watch but no ts, so no
// latency is recorded for them. Under the kill and resize cycles it
// spins like the latency phase's pacer, so that a tuple is sent every
// 20 us and a recovery is seen that finely; under the event flood, which
// keeps both cores busy by itself, it sleeps between bursts.
type background struct {
	stop chan struct{}
	done chan struct{}
}

func (r *run) startBackground(spin time.Duration) *background {
	b := &background{stop: make(chan struct{}), done: make(chan struct{})}
	p := newPacer(time.Now(), rateBackground, spin)
	go func() {
		defer close(b.done)
		p.run(math.MaxInt64, b.stop, func(_ int64, _, sent time.Time) bool {
			if !r.j.inj.Push(r.tuple(time.Time{}, sent), b.stop) {
				r.next-- // stopped mid-push: the tuple was never offered
				return false
			}
			return true
		})
	}()
	return b
}

// halt stops the load and waits for its goroutine.
func (b *background) halt() {
	close(b.stop)
	<-b.done
}

// settle waits until the sink has been quiet for 20 ms: after phases
// that may drop tuples there is no count to wait for.
func (r *run) settle() {
	last, since := r.j.sink.count.Load(), time.Now()
	deadline := since.Add(waitDeadline)
	for time.Since(since) < 20*time.Millisecond && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if n := r.j.sink.count.Load(); n != last {
			last, since = n, time.Now()
		}
	}
}

// fail records a failed adaptation cycle.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// awaitArrival waits for the watch to be hit and returns when that was;
// ok is false once recoverLimit has passed since t0.
func (r *run) awaitArrival(w *arrivalWatch, t0 time.Time) (time.Time, bool) {
	defer r.j.sink.watch.Store(nil)
	for {
		if at, ok := w.arrived(); ok {
			return at, true
		}
		if time.Since(t0) > recoverLimit {
			return time.Time{}, false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// killStats are the kill cycles' samples, one entry per successful cycle.
type killStats struct {
	recoverMs []float64 // KillPE call -> first post-kill tuple at the sink
	detectUs  []float64 // KillPE call -> failure handler entry
	restartUs []float64 // around act.RestartPE
	resumeUs  []float64 // RestartPE return -> first post-kill tuple
	lost      seqRange  // what the background load offered meanwhile
}

// killCycles crashes the workload's kill target n times, every interval,
// under the background load. The routine restarts it; a cycle ends when
// the sink receives the first tuple that was sent after the failure was
// detected and, in a keyed region, routed to the killed replica.
func (r *run) killCycles(n int, every time.Duration) killStats {
	var ks killStats
	ks.lost.lo = r.next
	bg := r.startBackground(pacerSpin)
	phase := r.tr.begin("kills", -1)
	op, part := r.w.killTarget()
	for i := 0; i < n; i++ {
		begin := time.Now()
		r.cycles++
		sp := r.tr.begin(fmt.Sprintf("kill[%d]", i), phase)
		r.killOnce(&ks, op, part, sp)
		r.tr.end(sp)
		time.Sleep(time.Until(begin.Add(every)))
	}
	r.tr.end(phase)
	bg.halt()
	r.settle()
	ks.lost.hi = r.next
	return ks
}

func (r *run) killOnce(ks *killStats, op string, part int, parent int) {
	j := r.j
	pe, ok := j.svc.PEOfOperator(j.id, op)
	if !ok {
		r.fail("kill: no PE hosts %s", op)
		return
	}
	cyc := &killCycle{watch: &arrivalWatch{width: regionWidth, part: part}, done: make(chan struct{})}
	j.rt.cycle.Store(cyc)
	t0 := time.Now()
	sp := r.tr.begin("sam.kill", parent)
	err := j.svc.KillPE(pe, "bench kill")
	r.tr.end(sp)
	if err != nil {
		j.rt.cycle.Store(nil)
		r.fail("kill %s: %v", pe, err)
		return
	}
	select {
	case <-cyc.done:
	case <-time.After(recoverLimit):
		r.fail("kill %s: routine did not restart it within %s", pe, recoverLimit)
		return
	}
	if cyc.err != nil {
		r.fail("kill %s: RestartPE: %v", pe, cyc.err)
		return
	}
	at, ok := r.awaitArrival(cyc.watch, t0)
	if !ok {
		r.fail("kill %s: no tuple through the restarted PE within %s", pe, recoverLimit)
		return
	}
	// The rewired links can carry the first tuple a moment before
	// RestartPE has returned; resuming then took no time.
	resumed := at
	if resumed.Before(cyc.restarted) {
		resumed = cyc.restarted
	}
	r.tr.add("core.detect", parent, t0, cyc.detectedAt)
	r.tr.add("sam.restart", parent, cyc.detectedAt, cyc.restarted)
	r.tr.add("bench.resume", parent, cyc.restarted, resumed)
	ks.recoverMs = append(ks.recoverMs, durMs(at.Sub(t0)))
	ks.detectUs = append(ks.detectUs, durUs(cyc.detectedAt.Sub(t0)))
	ks.restartUs = append(ks.restartUs, durUs(cyc.restarted.Sub(cyc.detectedAt)))
	ks.resumeUs = append(ks.resumeUs, durUs(resumed.Sub(cyc.restarted)))
}

// resizeStats are the resize cycles' samples.
type resizeStats struct {
	resizeMs []float64 // wall time of svc.ResizeRegion
	lost     seqRange
}

// resizeCycles alternates the keyed region between width 3 and 2, n
// calls in all, under the background load. A cycle fails when the call
// errors or no tuple sent after it arrives within recoverLimit.
func (r *run) resizeCycles(n int, every time.Duration) resizeStats {
	var rs resizeStats
	rs.lost.lo = r.next
	bg := r.startBackground(pacerSpin)
	phase := r.tr.begin("resizes", -1)
	for i := 0; i < n; i++ {
		begin := time.Now()
		r.cycles++
		width := regionWidth + 1 - i%2
		sp := r.tr.begin(fmt.Sprintf("resize[%d]", i), phase)
		err := r.j.svc.ResizeRegion(r.j.id, regionName, width)
		r.tr.end(sp)
		took := time.Since(begin)
		if err != nil {
			r.fail("resize to %d: %v", width, err)
		} else {
			w := &arrivalWatch{after: time.Now(), part: -1}
			r.j.sink.watch.Store(w)
			if _, ok := r.awaitArrival(w, w.after); ok {
				rs.resizeMs = append(rs.resizeMs, durMs(took))
			} else {
				r.fail("resize to %d: no tuple through the region within %s", width, recoverLimit)
			}
		}
		time.Sleep(time.Until(begin.Add(every)))
	}
	r.tr.end(phase)
	bg.halt()
	r.settle()
	rs.lost.hi = r.next
	return rs
}

// eventFlood raises user events as fast as the service handles them for
// d and returns handled events per second.
func (r *run) eventFlood(d time.Duration) (float64, error) {
	rt := r.j.rt
	base := rt.events.Load()
	var raised int64
	t0 := time.Now()
	deadline := t0.Add(d)
	for time.Now().Before(deadline) {
		if raised-(rt.events.Load()-base) >= eventWindow {
			runtime.Gosched()
			continue
		}
		r.j.svc.RaiseUserEvent(userEvent, nil)
		raised++
	}
	err := waitFor(waitDeadline, "the raised user events to be handled", func() bool { return rt.events.Load()-base >= raised })
	return float64(raised) / time.Since(t0).Seconds(), err
}

// eventSegments floods user events in n segments under the background
// load and returns each segment's rate. Nothing is killed meanwhile, so
// the background tuples must all arrive.
func (r *run) eventSegments(n int, d time.Duration) ([]float64, error) {
	lo := r.next
	bg := r.startBackground(0)
	var tps []float64
	var err error
	for i := 0; i < n && err == nil; i++ {
		sp := r.tr.begin(fmt.Sprintf("events[%d]", i), -1)
		var v float64
		if v, err = r.eventFlood(d); err == nil {
			tps = append(tps, v)
		}
		r.tr.end(sp)
	}
	bg.halt()
	r.settle()
	r.strict = append(r.strict, seqRange{lo, r.next})
	return tps, err
}

// replicaCounts reads how many tuples each replica of the keyed region
// processed, from its PE's public counter.
func (r *run) replicaCounts() ([]int64, error) {
	counts := make([]int64, regionWidth)
	for i := range counts {
		op := fmt.Sprintf("%s/%d", regionName, i)
		pe, ok := r.j.svc.PEOfOperator(r.j.id, op)
		if !ok {
			return nil, fmt.Errorf("no PE hosts %s", op)
		}
		c, ok := r.j.inst.Cluster.PEContainer(pe)
		if !ok {
			return nil, fmt.Errorf("PE %s of %s has no container", pe, op)
		}
		counts[i] = c.PEMetrics().Counter(metrics.PETuplesProcessed).Value()
	}
	return counts, nil
}

// checkReplicas compares the replicas' counters with what the reference
// partitioning of the offered tuples [0, r.next) gives. It is only
// meaningful before the first kill: a restart resets the counters.
func (r *run) checkReplicas() error {
	got, err := r.replicaCounts()
	if err != nil {
		return err
	}
	want := make([]int64, regionWidth)
	want[opapi.PartitionOf("", 0, regionWidth)]++ // the set-up's first-tuple probe carries no key
	for i := int64(0); i < r.next; i++ {
		want[r.in.part[regionWidth][i&(tableSize-1)]]++
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("replica %d processed %d tuples, the reference partitioning gives %d", i, got[i], want[i])
		}
	}
	return nil
}

// verdict is the outcome of the reference check.
type verdict struct {
	offered   int64 // tuples offered over the whole run
	delivered int64
	bad       int64 // missing from a strict range, duplicated, or wrong
	errs      []string
}

// lostIn counts the offered tuples of a range that never arrived.
func (r *run) lostIn(sr seqRange) int64 {
	var lost int64
	for i := sr.lo; i < sr.hi; i++ {
		if atomic.LoadUint64(&r.j.sink.seen[i>>6])&(1<<(i&63)) == 0 {
			lost++
		}
	}
	return lost
}

// verify checks everything the sink received against the reference
// computed from the generated inputs: every tuple of a strict range
// arrived, nothing arrived twice, and the order-independent hash, count
// and seq sum of what arrived equal the reference's over the same set.
func (r *run) verify() verdict {
	sink := r.j.sink
	v := verdict{offered: r.next, delivered: sink.count.Load()}
	var count, sumSeq int64
	var hash uint64
	for w := int64(0); w <= (r.next-1)>>6 && r.next > 0; w++ {
		word := atomic.LoadUint64(&sink.seen[w])
		count += int64(bits.OnesCount64(word))
		for ; word != 0; word &= word - 1 {
			i := w<<6 + int64(bits.TrailingZeros64(word))
			sumSeq += i
			hash += r.in.refHash(i)
		}
	}
	for _, sr := range r.strict {
		if lost := r.lostIn(sr); lost > 0 {
			v.bad += lost
			v.errs = append(v.errs, fmt.Sprintf("%d of the %d tuples offered as seq %d..%d never arrived", lost, sr.hi-sr.lo, sr.lo, sr.hi-1))
		}
	}
	if d := sink.dups.Load(); d > 0 {
		v.bad += d
		v.errs = append(v.errs, fmt.Sprintf("%d tuples arrived twice or with a seq never offered", d))
	}
	if count != v.delivered || sumSeq != sink.sumSeq.Load() || hash != sink.hash.Load() {
		v.bad++
		v.errs = append(v.errs, fmt.Sprintf("sink accumulated count=%d sumSeq=%d hash=%x, the reference over the delivered set gives count=%d sumSeq=%d hash=%x",
			v.delivered, sink.sumSeq.Load(), sink.hash.Load(), count, sumSeq, hash))
	}
	return v
}
