package transport_test

import (
	"testing"
	"time"

	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/pe"
	"streamorca/internal/transport"
	"streamorca/internal/tuple"
)

var intSchema = tuple.MustSchema(tuple.Attribute{Name: "v", Type: tuple.Int})

// benchSink counts tuples and signals when n arrived.
type benchSink struct {
	opapi.Base
	n    int
	want int
	done chan struct{}
}

func (s *benchSink) Process(int, tuple.Tuple) error {
	s.n++
	if s.n == s.want {
		close(s.done)
	}
	return nil
}

// relay passes each tuple on: both hop benchmarks feed one through an
// external inlet, so they differ only in the hop behind it.
type relay struct {
	opapi.Base
	ctx opapi.Context
}

func (r *relay) Open(ctx opapi.Context) error       { r.ctx = ctx; return nil }
func (r *relay) Process(_ int, t tuple.Tuple) error { return r.ctx.Submit(0, t) }

// BenchmarkIntraPEHop measures one fused hop: a relay's submit into a
// neighbour operator's queue in the same PE, no serialization.
func BenchmarkIntraPEHop(b *testing.B) {
	benchHop(b, intSchema, tuple.Build(intSchema).Int("v", 42).Done(), true)
}

// BenchmarkCrossPEHop measures the same hop through the serializing
// transport (encode + decode + byte accounting), the cost every unfused
// connection pays. Under load the link frames tuples, so channel
// synchronisation, codec buffers, and decoded tuple storage amortise
// across the batch.
func BenchmarkCrossPEHop(b *testing.B) {
	benchHop(b, intSchema, tuple.Build(intSchema).Int("v", 42).Done(), false)
}

// BenchmarkCrossPEHopMixed is the same hop with a realistic mixed
// int/string/timestamp schema; string attributes copy on decode, so this
// is the upper end of per-hop cost.
func BenchmarkCrossPEHopMixed(b *testing.B) {
	mixed := tuple.MustSchema(
		tuple.Attribute{Name: "sym", Type: tuple.String},
		tuple.Attribute{Name: "price", Type: tuple.Float},
		tuple.Attribute{Name: "seq", Type: tuple.Int},
		tuple.Attribute{Name: "at", Type: tuple.Timestamp},
	)
	t := tuple.Build(mixed).
		Str("sym", "IBM").Float("price", 101.25).Int("seq", 7).
		Time("at", time.Unix(0, 1345999999123456789).UTC()).Done()
	benchHop(b, mixed, t, false)
}

// benchHop feeds b.N tuples into a relay whose output reaches a sink:
// wired in the same PE when fused, else through a link into a second PE.
func benchHop(b *testing.B, schema *tuple.Schema, t tuple.Tuple, fused bool) {
	sink := &benchSink{want: b.N, done: make(chan struct{})}
	reg := opapi.NewRegistry()
	reg.Register("Relay", func() opapi.Operator { return &relay{} })
	reg.Register("BenchSink", func() opapi.Operator { return sink })
	one := []*tuple.Schema{schema}
	relaySpec := pe.OpSpec{Name: "relay", Kind: "Relay", Inputs: one, Outputs: one}
	sinkSpec := pe.OpSpec{Name: "sink", Kind: "BenchSink", Inputs: one}
	newPE := func(specs []pe.OpSpec, wires []pe.Wire) *pe.PE {
		p, err := pe.New(pe.Config{ID: 1, Job: 1, App: "bench", Ops: specs, Wires: wires, Registry: reg})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	var pes []*pe.PE
	if fused {
		pes = append(pes, newPE([]pe.OpSpec{relaySpec, sinkSpec}, []pe.Wire{{FromOp: "relay", ToOp: "sink"}}))
	} else {
		pes = append(pes, newPE([]pe.OpSpec{relaySpec}, nil), newPE([]pe.OpSpec{sinkSpec}, nil))
		inlet, err := pes[1].ExternalBatchInlet("sink", 0)
		if err != nil {
			b.Fatal(err)
		}
		var sent, recv metrics.Counter
		link := transport.NewLink(schema, inlet, &sent, &recv, nil)
		defer link.Close()
		if err := pes[0].AddOutlet("relay", 0, "link", link.SendRun); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pes {
		if err := p.Start(); err != nil {
			b.Fatal(err)
		}
		defer p.Stop()
	}
	inlet, err := pes[0].ExternalInlet("relay", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inlet(pe.TupleItem(t))
	}
	<-sink.done
}
