package pe

import (
	"fmt"

	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

// opContext implements opapi.Context for one operator instance.
type opContext struct {
	rt *opRuntime
}

func (c *opContext) Name() string { return c.rt.spec.Name }

func (c *opContext) Params() opapi.Params { return c.rt.spec.Params }

func (c *opContext) NumOutputs() int { return len(c.rt.spec.Outputs) }

func (c *opContext) InputSchema(i int) *tuple.Schema {
	if i < 0 || i >= len(c.rt.spec.Inputs) {
		return nil
	}
	return c.rt.spec.Inputs[i]
}

func (c *opContext) OutputSchema(i int) *tuple.Schema {
	if i < 0 || i >= len(c.rt.spec.Outputs) {
		return nil
	}
	return c.rt.spec.Outputs[i]
}

func (c *opContext) Submit(i int, t tuple.Tuple) error {
	if err := c.checkSubmit(i, &t); err != nil {
		return err
	}
	c.rt.emit(i, TupleItem(t))
	return nil
}

// SubmitRun implements opapi.RunSubmitter: the whole run is checked
// before any of it is buffered, then leaves in one flush.
func (c *opContext) SubmitRun(i int, ts []tuple.Tuple) error {
	for k := range ts {
		if err := c.checkSubmit(i, &ts[k]); err != nil {
			return err
		}
	}
	if len(ts) > 0 {
		c.rt.emitRun(i, ts)
	}
	return nil
}

// checkSubmit is what every submitted tuple must pass: a port that
// exists, valid storage, the port's schema. Schemas are immutable, so
// the port remembers the last schema pointer that compared equal and
// walks the attributes again only for a new one.
func (c *opContext) checkSubmit(i int, t *tuple.Tuple) error {
	if i < 0 || i >= len(c.rt.spec.Outputs) {
		return fmt.Errorf("pe: %s has no output port %d", c.rt.spec.Name, i)
	}
	if !t.Valid() {
		return fmt.Errorf("pe: %s submitted an invalid tuple on port %d", c.rt.spec.Name, i)
	}
	if s := t.Schema(); s != c.rt.okSchema[i] {
		if !s.Equal(c.rt.spec.Outputs[i]) {
			return fmt.Errorf("pe: %s port %d schema mismatch: got %s want %s",
				c.rt.spec.Name, i, s, c.rt.spec.Outputs[i])
		}
		c.rt.okSchema[i] = s
	}
	return nil
}

func (c *opContext) SubmitMark(i int, m tuple.Mark) error {
	if i < 0 || i >= len(c.rt.spec.Outputs) {
		return fmt.Errorf("pe: %s has no output port %d", c.rt.spec.Name, i)
	}
	if m == tuple.NoMark {
		return fmt.Errorf("pe: %s submitted an empty punctuation", c.rt.spec.Name)
	}
	c.rt.emit(i, MarkItem(m))
	return nil
}

func (c *opContext) CustomMetric(name string) *metrics.Counter {
	return c.rt.om.Custom.Counter(name)
}

func (c *opContext) Clock() vclock.Clock { return c.rt.pe.cfg.Clock }

// Objects is the capability opapi.ObjectsOf looks for.
func (c *opContext) Objects() *opapi.Objects { return c.rt.pe.cfg.Objects }

func (c *opContext) Done() <-chan struct{} { return c.rt.pe.kill }
