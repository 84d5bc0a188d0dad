package load

import (
	"fmt"
	"sync"

	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// Operator kinds registered by this package.
const (
	// KindLoadSource is a source fed externally through an Injector:
	// the driver pushes tuples, the operator submits them downstream.
	KindLoadSource = "LoadSource"
	// KindLatencySink reads a timestamp attribute off every tuple and
	// records now-ts into the meter named by its meterId parameter.
	KindLatencySink = "LatencySink"
)

// injectorCap bounds the hand-off buffer between the drivers and their
// LoadSource. Small enough that a stalled pipeline back-pressures the
// driver quickly (the open-loop driver keeps charging latency against
// intended send times while blocked), large enough to ride out
// scheduling jitter at high rates.
const injectorCap = 256

// Injector is the hand-off between external drivers and a LoadSource
// operator, resolved by the operator's injectorId parameter from its
// platform instance's object set (opapi.Objects), like a sink's
// collection and for the same reason: the buffer must outlive PE
// restarts so a chaos-killed source PE reattaches mid-run.
//
// It is a swap buffer, the mechanism of pe's inbox and the link's
// sender side: any number of goroutines Push, each appending under the
// mutex and parking while injectorCap tuples are pending; the source
// takes everything pending in one swap, so an idle pipeline hands over
// one tuple at once and a busy one hands over a run. Both sides park
// on a one-token channel rather than a sync.Cond because both must
// also give way to a stop channel. Wake-ups are edge-triggered: a push
// wakes the source when it makes the buffer non-empty, a take wakes a
// pusher when it empties a full buffer, and a pusher woken that way
// passes the token on while room remains, so every parked pusher is
// released. No timer, no linger.
//
// Ownership: the drivers push and, after their last Push has returned,
// one of them closes. Closing delivers a final punctuation downstream.
type Injector struct {
	mu      sync.Mutex
	pending []tuple.Tuple
	closed  bool
	avail   chan struct{} // token: pending became non-empty, or closed
	space   chan struct{} // token: a full buffer was taken
}

func newInjector() *Injector {
	return &Injector{avail: make(chan struct{}, 1), space: make(chan struct{}, 1)}
}

// signal leaves a token in a one-token channel unless one is there.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Push hands one tuple to the source, blocking while the pipeline's
// back-pressure holds the buffer full. It returns false, queueing
// nothing, if stop closes first or the injector is closed; a nil stop
// blocks indefinitely. Safe for concurrent use.
func (in *Injector) Push(t tuple.Tuple, stop <-chan struct{}) bool {
	woken := false
	for {
		in.mu.Lock()
		if in.closed {
			in.mu.Unlock()
			signal(in.space) // whoever else is parked is refused too
			return false
		}
		if n := len(in.pending); n < injectorCap {
			in.pending = append(in.pending, t)
			in.mu.Unlock()
			if n == 0 {
				signal(in.avail)
			}
			if woken && n+1 < injectorCap {
				signal(in.space)
			}
			return true
		}
		in.mu.Unlock()
		select {
		case <-in.space:
			woken = true
		case <-stop:
			return false
		}
	}
}

// take blocks until something is pending and returns all of it, keeping
// spare (the caller's previous run, cleared) as the next pending
// buffer. It reports false once the injector is closed and drained, or
// when stop closes: a stopped taker leaves what is pending for the
// source's next incarnation.
func (in *Injector) take(spare []tuple.Tuple, stop <-chan struct{}) ([]tuple.Tuple, bool) {
	for {
		select {
		case <-stop:
			return nil, false
		default:
		}
		in.mu.Lock()
		run, closed := in.pending, in.closed
		if len(run) > 0 {
			in.pending = spare[:0]
			in.mu.Unlock()
			if len(run) == injectorCap {
				signal(in.space)
			}
			return run, true
		}
		in.mu.Unlock()
		if closed {
			return nil, false
		}
		select {
		case <-in.avail:
		case <-stop:
			return nil, false
		}
	}
}

// Close marks the end of the stream: the LoadSource drains what was
// pushed, then returns and emits a final punctuation. Idempotent; call
// it after every Push has returned (a later Push is refused).
func (in *Injector) Close() {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	signal(in.avail)
	signal(in.space)
}

// InjectorIn returns the named injector of an object set, creating it
// on first use.
func InjectorIn(objs *opapi.Objects, id string) *Injector {
	return opapi.Obtain(objs, id, newInjector)
}

// InjectorFor returns the named injector of opapi.DefaultObjects, where
// a LoadSource looks when its instance's set has none: for a driver that
// names its injector before the instance exists.
func InjectorFor(id string) *Injector { return InjectorIn(nil, id) }

// loadSource forwards tuples from its injector to output port 0.
//
// Parameters:
//
//	injectorId string  id of the injector the driver pushes into (required)
type loadSource struct {
	opapi.Base
	ctx opapi.Context
	inj *Injector
}

func (s *loadSource) Open(ctx opapi.Context) error {
	s.ctx = ctx
	cfg := ctx.Params().Bind()
	id := cfg.Str("injectorId", "")
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("LoadSource %s: %w", ctx.Name(), err)
	}
	if id == "" {
		return fmt.Errorf("LoadSource %s: injectorId is required", ctx.Name())
	}
	s.inj = InjectorIn(opapi.ObjectsOf(ctx), id)
	return nil
}

// Run forwards the injector's pending tuples a run at a time: one take,
// then one SubmitRun where the context offers it (the PE's does) and a
// Submit per tuple where it does not.
func (s *loadSource) Run(stop <-chan struct{}) error {
	rs, _ := s.ctx.(opapi.RunSubmitter)
	var run []tuple.Tuple
	for {
		var ok bool
		if run, ok = s.inj.take(run, stop); !ok {
			return nil // closed and drained (final punctuation), or stopped
		}
		if rs != nil {
			if err := rs.SubmitRun(0, run); err != nil {
				return err
			}
		} else {
			for _, t := range run {
				if err := s.ctx.Submit(0, t); err != nil {
					return err
				}
			}
		}
		clear(run)
	}
}

// latencySink records source-to-sink latency: each tuple carries the
// instant it was (intended to be) injected in a Timestamp attribute;
// the sink charges now-ts to the meter's histogram.
//
// Parameters:
//
//	meterId string  id of the meter to record into (required)
//	tsAttr  string  Timestamp attribute stamped at injection (default "ts")
type latencySink struct {
	opapi.Base
	ctx   opapi.Context
	meter *Meter
	tsRef tuple.FieldRef
}

func (s *latencySink) Open(ctx opapi.Context) error {
	s.ctx = ctx
	cfg := ctx.Params().Bind()
	id := cfg.Str("meterId", "")
	tsAttr := cfg.Str("tsAttr", "ts")
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("LatencySink %s: %w", ctx.Name(), err)
	}
	if id == "" {
		return fmt.Errorf("LatencySink %s: meterId is required", ctx.Name())
	}
	ref, err := ctx.InputSchema(0).TypedRef(tsAttr, tuple.Timestamp)
	if err != nil {
		return fmt.Errorf("LatencySink %s: %w", ctx.Name(), err)
	}
	s.meter = MeterIn(opapi.ObjectsOf(ctx), id)
	s.tsRef = ref
	return nil
}

func (s *latencySink) Process(port int, t tuple.Tuple) error {
	now := s.ctx.Clock().Now()
	lat := now.Sub(s.tsRef.Time(t))
	if lat < 0 {
		lat = 0
	}
	s.meter.Record(now, lat)
	return nil
}

// ProcessBatch charges the whole run against one clock reading — the
// tuples of a frame are delivered at the same instant, so per-tuple
// clock reads would only add measurement jitter on top of cost.
func (s *latencySink) ProcessBatch(port int, b *tuple.Batch) error {
	now := s.ctx.Clock().Now()
	ref, meter := s.tsRef, s.meter
	for _, t := range b.Tuples() {
		lat := now.Sub(ref.Time(t))
		if lat < 0 {
			lat = 0
		}
		meter.Record(now, lat)
	}
	return nil
}

func init() {
	opapi.Default.RegisterOp(KindLoadSource,
		func() opapi.Operator { return &loadSource{} },
		&opapi.OpModel{
			Doc:     "Source fed by external load drivers through a named injector.",
			Inputs:  opapi.PortSpec{},
			Outputs: opapi.ExactlyPorts(1),
			Params: []opapi.ParamSpec{
				{Name: "injectorId", Type: opapi.ParamString, Required: true,
					Doc: "id of the injector the driver pushes into"},
			},
		})
	opapi.Default.RegisterOp(KindLatencySink,
		func() opapi.Operator { return &latencySink{} },
		&opapi.OpModel{
			Doc:     "Sink recording source-to-sink latency from an injection-stamped Timestamp attribute.",
			Inputs:  opapi.ExactlyPorts(1),
			Outputs: opapi.PortSpec{},
			Params: []opapi.ParamSpec{
				{Name: "meterId", Type: opapi.ParamString, Required: true,
					Doc: "id of the meter latencies are recorded into"},
				{Name: "tsAttr", Type: opapi.ParamString, Default: "ts",
					Doc: "Timestamp attribute stamped at injection"},
			},
		})
}
