package opapi

import (
	"strings"
	"testing"
	"time"

	"streamorca/internal/tuple"
)

// TestParamsBindAccessors is the one table over Binder: each typed
// accessor reads a valid, an absent, an empty ("use the default") and a
// malformed value on a fresh Binder, and only the malformed read errors.
func TestParamsBindAccessors(t *testing.T) {
	p := Params{
		"s": "hello", "i": "42", "f": "2.5", "b": "true", "d": "3s", "e": "fast",
		"empty": "", "bad": "x",
	}
	for _, a := range []struct {
		name           string
		read           func(b *Binder, key string) any
		valid          string
		want, def, bad any // bad is what the malformed read returns
	}{
		{"Int", func(b *Binder, k string) any { return b.Int(k, 7) }, "i", int64(42), int64(7), int64(7)},
		{"Float", func(b *Binder, k string) any { return b.Float(k, 1.5) }, "f", 2.5, 1.5, 1.5},
		{"Bool", func(b *Binder, k string) any { return b.Bool(k, false) }, "b", true, false, false},
		{"Duration", func(b *Binder, k string) any { return b.Duration(k, time.Minute) }, "d", 3 * time.Second, time.Minute, time.Minute},
		{"Enum", func(b *Binder, k string) any { return b.Enum(k, "slow", "fast", "slow") }, "e", "fast", "slow", "slow"},
		// Every string is well formed: Str reads "x" and records nothing.
		{"Str", func(b *Binder, k string) any { return b.Str(k, "dflt") }, "s", "hello", "dflt", "x"},
	} {
		for _, c := range []struct {
			key     string
			want    any
			wantErr bool
		}{
			{a.valid, a.want, false},
			{"missing", a.def, false},
			{"empty", a.def, false},
			{"bad", a.bad, a.name != "Str"},
		} {
			b := p.Bind()
			got := a.read(b, c.key)
			if got != c.want || (b.Err() != nil) != c.wantErr {
				t.Errorf("%s(%q) = %v, err %v; want %v, error %v", a.name, c.key, got, b.Err(), c.want, c.wantErr)
			}
		}
	}
}

// TestParamsAccessors reads every kind through one Binder, as an operator's
// Open does: each read returns its own value and a clean run leaves Err nil.
func TestParamsAccessors(t *testing.T) {
	b := Params{"s": "hello", "i": "42", "f": "2.5", "b": "true", "d": "3s", "e": "fast"}.Bind()
	if s, i, f, bl, d, e := b.Str("s", ""), b.Int("i", 0), b.Float("f", 0), b.Bool("b", false),
		b.Duration("d", 0), b.Enum("e", "slow", "fast", "slow"); s != "hello" || i != 42 || f != 2.5 || !bl || d != 3*time.Second || e != "fast" {
		t.Fatalf("reads = %q %d %g %v %v %q", s, i, f, bl, d, e)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("clean Binder reported %v", err)
	}
}

// TestBinderAccumulates checks that Err joins every error the reads on one
// Binder recorded, and leaves out the well-formed reads between them.
func TestBinderAccumulates(t *testing.T) {
	b := Params{"d": "3s", "bad": "x"}.Bind()
	b.Int("bad", 0)
	b.Duration("d", 0)
	b.Enum("bad", "", "a", "b")
	err := b.Err()
	for _, want := range []string{`param "bad": invalid int64 value "x"`, `param "bad": value "x" not in {a, b}`} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Err() = %v, want it to contain %q", err, want)
		}
	}
	if strings.Contains(err.Error(), `"d"`) {
		t.Errorf("Err() = %v reports the well-formed param", err)
	}
}

func TestParamSpecCheck(t *testing.T) {
	cases := []struct {
		spec  ParamSpec
		value string
		ok    bool
	}{
		{ParamSpec{Name: "p", Type: ParamInt}, "5", true},
		{ParamSpec{Name: "p", Type: ParamInt}, "5.5", false},
		{ParamSpec{Name: "p", Type: ParamInt, Min: Bound(0)}, "-1", false},
		{ParamSpec{Name: "p", Type: ParamInt, Max: Bound(10)}, "11", false},
		{ParamSpec{Name: "p", Type: ParamFloat}, "1e3", true},
		{ParamSpec{Name: "p", Type: ParamFloat}, "one", false},
		{ParamSpec{Name: "p", Type: ParamBool}, "true", true},
		{ParamSpec{Name: "p", Type: ParamBool}, "yes", false},
		{ParamSpec{Name: "p", Type: ParamDuration}, "150ms", true},
		{ParamSpec{Name: "p", Type: ParamDuration}, "150", false},
		{ParamSpec{Name: "p", Type: ParamDuration, Min: Bound(1)}, "500ms", false},
		{ParamSpec{Name: "p", Type: ParamEnum, Enum: []string{"a", "b"}}, "a", true},
		{ParamSpec{Name: "p", Type: ParamEnum, Enum: []string{"a", "b"}}, "c", false},
		{ParamSpec{Name: "p", Type: ParamString}, "anything", true},
		// Template references and empty values defer to submission time.
		{ParamSpec{Name: "p", Type: ParamInt}, "{{n}}", true},
		{ParamSpec{Name: "p", Type: ParamInt}, "", true},
	}
	for _, tc := range cases {
		err := tc.spec.Check(tc.value)
		if tc.ok && err != nil {
			t.Errorf("%v Check(%q) = %v, want ok", tc.spec.Type, tc.value, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%v Check(%q) passed, want error", tc.spec.Type, tc.value)
		}
	}
}

func TestOpModelValidate(t *testing.T) {
	m := &OpModel{
		Kind:    "M",
		Inputs:  ExactlyPorts(1).WithAttrs(tuple.Attribute{Name: "v", Type: tuple.Int}),
		Outputs: AtLeastPorts(1),
		Params: []ParamSpec{
			{Name: "rate", Type: ParamFloat, Required: true},
			{Name: "mode", Type: ParamEnum, Enum: []string{"a", "b"}},
		},
	}
	intS := tuple.MustSchema(tuple.Attribute{Name: "v", Type: tuple.Int})
	strS := tuple.MustSchema(tuple.Attribute{Name: "v", Type: tuple.String})

	if errs := m.Validate(Params{"rate": "1"}, []*tuple.Schema{intS}, []*tuple.Schema{intS, intS}); len(errs) != 0 {
		t.Fatalf("valid config rejected: %v", errs)
	}
	errs := m.Validate(Params{"mode": "c", "ghost": "1"}, nil, nil)
	joined := make([]string, len(errs))
	for i, e := range errs {
		joined[i] = e.Error()
	}
	all := strings.Join(joined, "; ")
	for _, want := range []string{
		`required param "rate" (float64) missing`,
		`unknown param "ghost" (kind M accepts: mode, rate)`,
		`value "c" not in {a, b}`,
		`declares 0 input port(s), want exactly 1`,
		`declares 0 output port(s), want at least 1`,
	} {
		if !strings.Contains(all, want) {
			t.Errorf("missing %q in %q", want, all)
		}
	}
	// Wrong attribute type on a constrained port.
	errs = m.ValidatePorts([]*tuple.Schema{strS}, []*tuple.Schema{intS})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), `attribute "v" is rstring, want int64`) {
		t.Fatalf("port type constraint: %v", errs)
	}
}

func TestRegistryModels(t *testing.T) {
	r := NewRegistry()
	noop := func() Operator { return &dummyOp{} }
	r.RegisterOp("WithModel", noop, &OpModel{Outputs: ExactlyPorts(1)})
	r.Register("NoModel", noop)
	if m := r.Model("WithModel"); m == nil || m.Kind != "WithModel" {
		t.Fatalf("Model() = %+v, want kind filled in", m)
	}
	if r.Model("NoModel") != nil {
		t.Fatal("modelless kind returned a model")
	}
	if r.Model("Ghost") != nil || r.Registered("Ghost") {
		t.Fatal("unknown kind resolved")
	}
	if !r.Registered("NoModel") {
		t.Fatal("registered kind not reported")
	}
}

func TestRegistryRejectsMalformedModels(t *testing.T) {
	noop := func() Operator { return &dummyOp{} }
	bad := []*OpModel{
		{Params: []ParamSpec{{Name: "", Type: ParamInt}}},
		{Params: []ParamSpec{{Name: "a", Type: ParamInt}, {Name: "a", Type: ParamInt}}},
		{Params: []ParamSpec{{Name: "a", Type: ParamEnum}}},
		{Params: []ParamSpec{{Name: "a", Type: ParamInt, Min: Bound(2), Max: Bound(1)}}},
		{Inputs: PortSpec{Min: 2, Max: 1}},
	}
	for i, m := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("malformed model %d registered without panic", i)
				}
			}()
			NewRegistry().RegisterOp("K", noop, m)
		}()
	}
}

func TestPortSpecString(t *testing.T) {
	cases := []struct {
		ps   PortSpec
		want string
	}{
		{PortSpec{}, "none"},
		{ExactlyPorts(2), "exactly 2"},
		{AtLeastPorts(1), "at least 1"},
		{AtLeastPorts(0), "any number"},
		{PortSpec{Min: 1, Max: 3}, "between 1 and 3"},
	}
	for _, tc := range cases {
		if got := tc.ps.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
