package apps

import (
	"testing"
	"time"

	"streamorca/internal/opapi"
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

// stampCtx is the context a lone source runs in: it reports the clock's
// reading at every Submit on emits.
type stampCtx struct {
	opapi.Context // nil: what a source does not call
	params        opapi.Params
	clk           vclock.Clock
	emits         chan time.Time
}

func (c *stampCtx) Name() string                   { return "ticks" }
func (c *stampCtx) Params() opapi.Params           { return c.params }
func (c *stampCtx) OutputSchema(int) *tuple.Schema { return TickSchema }
func (c *stampCtx) Clock() vclock.Clock            { return c.clk }
func (c *stampCtx) Submit(int, tuple.Tuple) error  { c.emits <- c.clk.Now(); return nil }

// TestTickSourcePacesOnItsStart: when every sleep wakes 30 % late, a
// periodic source still emits its n-th tick within one period of
// start + n·period — the lateness does not add up tick after tick — and
// skips none.
func TestTickSourcePacesOnItsStart(t *testing.T) {
	const ticks, period = 1000, time.Millisecond
	start := time.Unix(0, 0)
	clk := &lateClock{Manual: vclock.NewManual(start), asks: make(chan time.Time, 1)}
	ctx := &stampCtx{params: opapi.Params{"count": "1001", "period": period.String()}, clk: clk, emits: make(chan time.Time, 1)}
	src := &tickSource{}
	if err := src.Open(ctx); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() { done <- src.Run(stop) }()
	defer func() { close(stop); <-done }()
	deadline := time.After(10 * time.Second)
	for n := 0; n < ticks; {
		select {
		case at := <-clk.asks:
			clk.AdvanceTo(at)
		case at := <-ctx.emits:
			if late := at.Sub(start.Add(time.Duration(n) * period)); late < 0 || late > period {
				t.Fatalf("tick %d emitted %v after start + n·period, want within [0, %v]", n, late, period)
			}
			n++
		case <-deadline:
			t.Fatalf("source stalled after %d ticks", n)
		}
	}
}
