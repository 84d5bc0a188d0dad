package ops

import (
	"fmt"
	"sync/atomic"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// beacon is the standard test/demo source: it emits sequentially numbered
// tuples on output port 0. The sequence cursor is checkpointable state:
// on a checkpointing platform a restarted beacon resumes numbering where
// the snapshot left off instead of starting over from zero.
//
// Parameters:
//
//	count   int     number of tuples to emit; 0 or absent = unbounded
//	period  string  inter-tuple delay as a Go duration; absent = none
//	seqAttr string  int64 attribute receiving the sequence number
//	                (default "seq"; skipped if the schema lacks it)
type beacon struct {
	opapi.Base
	ctx     opapi.Context
	count   int64
	period  time.Duration
	seqAttr string
	// next is the sequence cursor; atomic because SaveState runs
	// concurrently with the Run goroutine (sources have no processing
	// loop to serialise against).
	next atomic.Int64
}

func (b *beacon) Open(ctx opapi.Context) error {
	b.ctx = ctx
	if ctx.NumOutputs() != 1 {
		return fmt.Errorf("Beacon %s: needs exactly 1 output port", ctx.Name())
	}
	cfg := ctx.Params().Bind()
	b.count = cfg.Int("count", 0)
	b.period = cfg.Duration("period", 0)
	b.seqAttr = cfg.Str("seqAttr", "seq")
	if err := cfg.Err(); err != nil {
		return fmt.Errorf("Beacon %s: %w", ctx.Name(), err)
	}
	return nil
}

func (b *beacon) Run(stop <-chan struct{}) error {
	var seqRef tuple.FieldRef
	if schema := b.ctx.OutputSchema(0); schema.Index(b.seqAttr) >= 0 {
		ref, err := schema.TypedRef(b.seqAttr, tuple.Int)
		if err != nil {
			return err
		}
		seqRef = ref
	}
	return opapi.Generate(b.ctx, stop, &b.next, b.count, b.period, func(i int64, t tuple.Tuple) {
		if seqRef.Valid() {
			seqRef.SetInt(t, i)
		}
	})
}

// SaveState snapshots the sequence cursor.
func (b *beacon) SaveState(e *ckpt.Encoder) error {
	e.PutInt(b.next.Load())
	return nil
}

// RestoreState resumes numbering from the snapshot's cursor.
func (b *beacon) RestoreState(d *ckpt.Decoder) error {
	v := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	b.next.Store(v)
	return nil
}
