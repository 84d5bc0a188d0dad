package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamorca/internal/load"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// KindBenchSink is the benchmark's terminal operator: it checks what
// arrives against the reference and records latencies. It lives in the
// benchmark package and registers into opapi.Default like any
// user-defined operator kind.
const KindBenchSink = "BenchSink"

// seenBits bounds the offered sequence numbers one run may use: 2^27
// tuples is 60 s at 2.2 M tuples/s, above any workload's ceiling.
const seenBits = 1 << 27

// sinkState is what a BenchSink accumulates. It lives in a registry
// keyed by the operator's sinkId parameter, not in the operator, so it
// survives the PE restarts the kill cycles cause (the same pattern as
// load.MeterFor).
type sinkState struct {
	// countOnly makes the sink add up batch lengths and nothing else:
	// the layer probes use it so that they time the layer, not the check.
	countOnly bool
	// delta is what the graph adds to seq on the way (2 on the chains).
	delta int64

	count  atomic.Int64  // checked tuples delivered
	probes atomic.Int64  // first-tuple probes (negative offered seq)
	hash   atomic.Uint64 // wrapping sum of tupleHash over delivered tuples
	sumSeq atomic.Int64  // sum of offered seq over delivered tuples
	dups   atomic.Int64  // offered seq seen twice, or out of range
	seen   []uint64      // bit i set once offered seq i arrived

	lat   atomic.Pointer[latRecorder]
	watch atomic.Pointer[arrivalWatch]
}

// latRecorder holds one paced phase's latency histograms: due-based per
// window of the schedule (what a user waiting since the due instant
// saw), and send-based over the whole phase (the pipeline's own transit
// time, without the generator's lateness).
type latRecorder struct {
	start   time.Time     // of the first window
	width   time.Duration // of one window
	due     []*load.Histogram
	transit *load.Histogram
}

func newLatRecorder(start time.Time, width time.Duration, windows int) *latRecorder {
	r := &latRecorder{start: start, width: width, transit: load.NewHistogram()}
	for i := 0; i < windows; i++ {
		r.due = append(r.due, load.NewHistogram())
	}
	return r
}

// arrivalWatch asks the sink for the arrival instant of the first tuple
// that was sent at or after a given instant and, in a keyed region,
// routed to a given replica — the end of a recovery.
type arrivalWatch struct {
	after time.Time
	width int // region width the partition is computed at
	part  int // replica the tuple must be routed to; -1 = any
	hit   atomic.Int64
}

// arrived returns when the watched tuple reached the sink.
func (w *arrivalWatch) arrived() (time.Time, bool) {
	n := w.hit.Load()
	return time.Unix(0, n), n != 0
}

var (
	sinksMu sync.Mutex
	sinks   = map[string]*sinkState{}
)

// newSink registers a fresh state under id. Only the measured
// incarnation of a job gets the seen bitmap; set-up repetitions push
// nothing but first-tuple probes.
func newSink(id string, delta int64, measured bool) *sinkState {
	st := &sinkState{delta: delta}
	if measured {
		st.seen = make([]uint64, seenBits/64)
	}
	sinksMu.Lock()
	sinks[id] = st
	sinksMu.Unlock()
	return st
}

func dropSink(id string) {
	sinksMu.Lock()
	delete(sinks, id)
	sinksMu.Unlock()
}

// benchSink is the operator instance.
//
// Parameters:
//
//	sinkId string  registry id of the sinkState to accumulate into (required)
type benchSink struct {
	opapi.Base
	ctx opapi.Context
	st  *sinkState

	user, seq, score, ts, sent tuple.FieldRef
	one                        [1]tuple.Tuple
}

func (s *benchSink) Open(ctx opapi.Context) error {
	s.ctx = ctx
	cfg := ctx.Params().Bind()
	id := cfg.Str("sinkId", "")
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("BenchSink %s: %w", ctx.Name(), err)
	}
	sinksMu.Lock()
	s.st = sinks[id]
	sinksMu.Unlock()
	if s.st == nil {
		return fmt.Errorf("BenchSink %s: no sink state registered under %q", ctx.Name(), id)
	}
	in := ctx.InputSchema(0)
	var err error
	for _, r := range []struct {
		ref  *tuple.FieldRef
		name string
		typ  tuple.Type
	}{
		{&s.user, "user", tuple.String}, {&s.seq, "seq", tuple.Int}, {&s.score, "score", tuple.Float},
		{&s.ts, "ts", tuple.Timestamp}, {&s.sent, "sent", tuple.Timestamp},
	} {
		if *r.ref, err = in.TypedRef(r.name, r.typ); err != nil {
			return fmt.Errorf("BenchSink %s: %w", ctx.Name(), err)
		}
	}
	return nil
}

func (s *benchSink) Process(port int, t tuple.Tuple) error {
	s.one[0] = t
	s.record(s.one[:])
	s.one[0] = tuple.Tuple{}
	return nil
}

func (s *benchSink) ProcessBatch(port int, b *tuple.Batch) error {
	s.record(b.Tuples())
	return nil
}

// record accounts one run of tuples against a single clock reading: the
// tuples of a frame are delivered at the same instant.
func (s *benchSink) record(ts []tuple.Tuple) {
	st := s.st
	if st.countOnly {
		st.count.Add(int64(len(ts)))
		return
	}
	now := s.ctx.Clock().Now()
	lat, watch := st.lat.Load(), st.watch.Load()
	if watch != nil && watch.hit.Load() != 0 {
		watch = nil
	}
	var n, sum int64
	var h uint64
	for _, t := range ts {
		seq := s.seq.Int(t) - st.delta
		if seq < 0 {
			st.probes.Add(1)
			continue
		}
		user := s.user.Str(t)
		word, bit := seq>>6, uint64(1)<<(seq&63)
		if word >= int64(len(st.seen)) || atomic.OrUint64(&st.seen[word], bit)&bit != 0 {
			st.dups.Add(1)
			continue
		}
		n++
		sum += seq
		h += tupleHash(user, s.score.Float(t), seq)
		if lat != nil {
			// Tuples due before the first window are the warm-up.
			if due := s.ts.Time(t); !due.Before(lat.start) {
				if w := int(due.Sub(lat.start) / lat.width); w < len(lat.due) {
					lat.due[w].Record(now.Sub(due))
				}
				lat.transit.Record(now.Sub(s.sent.Time(t)))
			}
		}
		if watch != nil && !s.sent.Time(t).Before(watch.after) &&
			(watch.part < 0 || opapi.PartitionOf(user, 0, watch.width) == watch.part) {
			watch.hit.CompareAndSwap(0, now.UnixNano())
			watch = nil
		}
	}
	st.count.Add(n)
	st.sumSeq.Add(sum)
	st.hash.Add(h)
}

func init() {
	opapi.Default.RegisterOp(KindBenchSink,
		func() opapi.Operator { return &benchSink{} },
		&opapi.OpModel{
			Doc:     "Benchmark sink: checks delivered tuples against the reference and records due- and send-based latency.",
			Inputs:  opapi.ExactlyPorts(1),
			Outputs: opapi.PortSpec{},
			Params: []opapi.ParamSpec{
				{Name: "sinkId", Type: opapi.ParamString, Required: true,
					Doc: "registry id of the state the sink accumulates into"},
			},
		})
}
