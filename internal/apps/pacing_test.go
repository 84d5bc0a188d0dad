package apps

import (
	"strconv"
	"testing"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

// lateClock is a manual clock whose every wait runs 30 % past what was
// asked for, the way a loaded box's timer wakes late; it reports each
// wait's deadline on asks, so the test can advance the clock to it.
type lateClock struct {
	*vclock.Manual
	asks chan time.Time
}

func (c *lateClock) After(d time.Duration) <-chan time.Time {
	d = d * 13 / 10
	ch := c.Manual.After(d)
	c.asks <- c.Now().Add(d)
	return ch
}

// emit is one submitted tuple and the clock's reading at its Submit.
type emit struct {
	at time.Time
	t  tuple.Tuple
}

// stampCtx is the context a lone source runs in: one output port of
// schema, and every Submit reported on emits.
type stampCtx struct {
	opapi.Context // nil: what a source does not call
	schema        *tuple.Schema
	params        opapi.Params
	clk           vclock.Clock
	emits         chan emit
}

func (c *stampCtx) Name() string                      { return "src" }
func (c *stampCtx) Params() opapi.Params              { return c.params }
func (c *stampCtx) NumOutputs() int                   { return 1 }
func (c *stampCtx) OutputSchema(int) *tuple.Schema    { return c.schema }
func (c *stampCtx) Clock() vclock.Clock               { return c.clk }
func (c *stampCtx) Submit(_ int, t tuple.Tuple) error { c.emits <- emit{c.clk.Now(), t}; return nil }

// TestSourcesPaceOnTheirStart: when every sleep wakes 30 % late, each
// periodic source still emits its n-th tuple within one period of
// start + n·period — the lateness does not add up tick after tick — and
// skips none. A beacon restored to cursor c paces from Run's start too:
// its first tick carries seq c and goes out at once, not c periods late.
func TestSourcesPaceOnTheirStart(t *testing.T) {
	const ticks, period = 1000, time.Millisecond
	for _, tc := range []struct {
		name, kind string
		schema     *tuple.Schema
		restore    int64 // cursor restored before Run (beacon only)
		seq0       int64 // seq of the first tuple, where the schema has one
	}{
		{name: "Beacon", kind: ops.KindBeacon, schema: TickSchema},
		{name: "TweetSource", kind: KindTweetSource, schema: TweetSchema},
		{name: "TickSource", kind: KindTickSource, schema: TickSchema, seq0: 1},
		{name: "ProfileSource", kind: KindProfileSource, schema: ProfileSchema},
		{name: "RestoredBeacon", kind: ops.KindBeacon, schema: TickSchema, restore: 5000, seq0: 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Unix(0, 0)
			clk := &lateClock{Manual: vclock.NewManual(start), asks: make(chan time.Time, 1)}
			ctx := &stampCtx{
				schema: tc.schema,
				params: opapi.Params{"count": strconv.FormatInt(tc.restore+ticks+1, 10), "period": period.String()},
				clk:    clk,
				emits:  make(chan emit, 1),
			}
			op, err := opapi.Default.New(tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			if tc.restore > 0 {
				w := ckpt.NewWriter()
				defer w.Close()
				if err := w.Section("src", tc.kind, func(e *ckpt.Encoder) error { e.PutInt(tc.restore); return nil }); err != nil {
					t.Fatal(err)
				}
				snap, err := ckpt.Parse(w.Finish())
				if err != nil {
					t.Fatal(err)
				}
				if err := op.(opapi.StatefulOperator).RestoreState(snap.Sections()[0].Decoder()); err != nil {
					t.Fatal(err)
				}
			}
			var seq tuple.FieldRef
			if tc.schema.Index("seq") >= 0 {
				seq = tc.schema.MustRef("seq")
			}
			stop, done := make(chan struct{}), make(chan error, 1)
			go func() { done <- op.(opapi.Source).Run(stop) }()
			defer func() { // drain the fake, so a failed run stops too
				close(stop)
				for {
					select {
					case <-clk.asks:
					case <-ctx.emits:
					case <-done:
						return
					}
				}
			}()
			deadline := time.After(10 * time.Second)
			for n := int64(0); n < ticks; {
				select {
				case at := <-clk.asks:
					clk.AdvanceTo(at)
				case e := <-ctx.emits:
					if late := e.at.Sub(start.Add(time.Duration(n) * period)); late < 0 || late > period {
						t.Fatalf("tuple %d emitted %v after start + n·period, want within [0, %v]", n, late, period)
					}
					if seq.Valid() && seq.Int(e.t) != tc.seq0+n {
						t.Fatalf("tuple %d carries seq %d, want %d", n, seq.Int(e.t), tc.seq0+n)
					}
					n++
				case <-deadline:
					t.Fatalf("source stalled after %d tuples", n)
				}
			}
		})
	}
}
