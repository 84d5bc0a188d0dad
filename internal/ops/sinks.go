package ops

import (
	"bufio"
	"fmt"
	"os"
	"sync"

	"streamorca/internal/ckpt"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// Collection is an externally observable buffer of tuples produced by a
// CollectSink. Experiments and tests attach to it by id to observe
// application output (the stand-in for the paper's live GUI graphs in
// Figure 9).
type Collection struct {
	mu     sync.Mutex
	tuples []tuple.Tuple
	finals int
	limit  int
}

// Tuples returns a copy of the collected tuples.
func (c *Collection) Tuples() []tuple.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]tuple.Tuple(nil), c.tuples...)
}

// Len returns the number of collected tuples.
func (c *Collection) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tuples)
}

// Last returns the most recent tuple, if any.
func (c *Collection) Last() (tuple.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.tuples) == 0 {
		return tuple.Tuple{}, false
	}
	return c.tuples[len(c.tuples)-1], true
}

// Finals returns how many final punctuations the sink received.
func (c *Collection) Finals() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finals
}

func (c *Collection) add(t tuple.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tuples = append(c.tuples, t)
	if c.limit > 0 && len(c.tuples) > c.limit {
		c.tuples = c.tuples[len(c.tuples)-c.limit:]
	}
}

func (c *Collection) addFinal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finals++
}

// Collector returns the named collection of an object set, creating it
// on first use.
func Collector(objs *opapi.Objects, id string) *Collection {
	return opapi.Obtain(objs, id, func() *Collection { return &Collection{} })
}

// collectSink stores received tuples into the Collection named by the
// "collectorId" parameter (default: the operator's own instance name).
//
// Parameters:
//
//	collectorId string  collection to append to
//	limit       int     keep only the most recent N tuples (0 = all)
type collectSink struct {
	opapi.Base
	coll *Collection
}

func (s *collectSink) Open(ctx opapi.Context) error {
	id := ctx.Params().Get("collectorId", ctx.Name())
	limit, err := ctx.Params().BindInt("limit", 0)
	if err != nil {
		return fmt.Errorf("CollectSink %s: %w", ctx.Name(), err)
	}
	s.coll = Collector(opapi.ObjectsOf(ctx), id)
	s.coll.mu.Lock()
	s.coll.limit = int(limit)
	s.coll.mu.Unlock()
	return nil
}

// Process keeps a copy: t's storage is the frame's, reused after the call.
func (s *collectSink) Process(port int, t tuple.Tuple) error {
	s.coll.add(t.Clone())
	return nil
}

func (s *collectSink) ProcessMark(port int, m tuple.Mark) error {
	if m == tuple.FinalMark {
		s.coll.addFinal()
	}
	return nil
}

// fileSink appends one formatted line per tuple to a file.
//
// Parameters:
//
//	path string  output file (required)
type fileSink struct {
	opapi.Base
	f *os.File
	w *bufio.Writer
}

func (s *fileSink) Open(ctx opapi.Context) error {
	path := ctx.Params().Get("path", "")
	if path == "" {
		return fmt.Errorf("FileSink %s: path parameter required", ctx.Name())
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("FileSink %s: %w", ctx.Name(), err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	return nil
}

func (s *fileSink) Process(port int, t tuple.Tuple) error {
	_, err := fmt.Fprintln(s.w, t.Format())
	return err
}

func (s *fileSink) ProcessMark(port int, m tuple.Mark) error {
	if m == tuple.FinalMark {
		return s.w.Flush()
	}
	return nil
}

func (s *fileSink) Close() error {
	if s.w != nil {
		_ = s.w.Flush()
	}
	if s.f != nil {
		return s.f.Close()
	}
	return nil
}

// countSink discards tuples, tracking only the custom metric
// "nTuplesSeen" — the cheapest possible sink for throughput benches.
// The counter is checkpointable state: on a checkpointing platform the
// count survives a PE restart instead of resetting to zero, which is
// what the recovery smoke scenario asserts on.
type countSink struct {
	opapi.Base
	ctx  opapi.Context
	seen *metrics.Counter
}

func (s *countSink) Open(ctx opapi.Context) error {
	s.ctx = ctx
	s.seen = ctx.CustomMetric(MetricTuplesSeen)
	return nil
}

func (s *countSink) Process(port int, t tuple.Tuple) error {
	s.seen.Inc()
	return nil
}

// ProcessBatch counts the whole run with one atomic add.
func (s *countSink) ProcessBatch(port int, b *tuple.Batch) error {
	s.seen.Add(int64(b.Len()))
	return nil
}

// SaveState snapshots the tuple count.
func (s *countSink) SaveState(e *ckpt.Encoder) error {
	e.PutInt(s.seen.Value())
	return nil
}

// RestoreState reinstates the tuple count into the fresh container's
// metric, so SRM-visible totals continue across the restart.
func (s *countSink) RestoreState(d *ckpt.Decoder) error {
	v := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	s.seen.Set(v)
	return nil
}
