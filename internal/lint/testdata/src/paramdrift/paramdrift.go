// Package paramdrift is an orcalint fixture: operator registrations
// whose OpModel declarations drift from the Binder calls in their
// implementations. The code compiles; every defect here is invisible to
// the compiler and caught only by the analyzer.
package paramdrift

import (
	"streamorca/internal/opapi"
)

func init() {
	// Drifted operator: binds an undeclared param, declares one it
	// never binds, and binds a third under the wrong type.
	opapi.Default.RegisterOp("Drifted", func() opapi.Operator { return &drifted{} }, &opapi.OpModel{
		Doc: "fixture operator with drifted params",
		Params: []opapi.ParamSpec{
			{Name: "rate", Type: opapi.ParamInt},
			{Name: "window", Type: opapi.ParamDuration}, // want `declared param "window" is never bound`
			{Name: "mode", Type: opapi.ParamEnum, Enum: []string{"a", "b"}},
		},
	})

	// Clean operator: declarations and binds agree — no diagnostics.
	opapi.Default.RegisterOp("Clean", newClean, &opapi.OpModel{
		Doc:    "fixture operator with matching params",
		Params: cleanParams(),
	})

	// Dynamic binder: a non-constant key disables the unbound check, so
	// the never-bound "extra" param is not reported.
	opapi.Default.RegisterOp("Dynamic", func() opapi.Operator { return &dynamic{} }, &opapi.OpModel{
		Doc: "fixture operator binding through a computed key",
		Params: []opapi.ParamSpec{
			{Name: "extra", Type: opapi.ParamString},
		},
	})
}

type drifted struct {
	opapi.Base
}

func (d *drifted) Open(ctx opapi.Context) error {
	cfg := ctx.Params().Bind()
	cfg.Int("rate", 1)
	cfg.Int("burst", 0)  // want `binds param "burst", which its OpModel does not declare`
	cfg.Str("mode", "a") // want `param "mode" is declared enum but bound as string`
	return cfg.Err()
}

type clean struct {
	opapi.Base
	limit int64
}

func newClean() opapi.Operator { return &clean{} }

// cleanParams is the shared parameter-block idiom: the analyzer follows
// the helper call to the literal it returns.
func cleanParams() []opapi.ParamSpec {
	return []opapi.ParamSpec{
		{Name: "limit", Type: opapi.ParamInt},
		{Name: "label", Type: opapi.ParamString},
	}
}

func (c *clean) Open(ctx opapi.Context) error {
	cfg := ctx.Params().Bind()
	c.limit = cfg.Int("limit", 10)
	cfg.Str("label", "")
	return cfg.Err()
}

type dynamic struct {
	opapi.Base
}

func (d *dynamic) Open(ctx opapi.Context) error {
	for _, key := range []string{"extra"} {
		ctx.Params().Bind().Str(key, "")
	}
	return nil
}
