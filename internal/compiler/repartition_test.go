package compiler

import (
	"strings"
	"testing"

	"streamorca/internal/adl"
)

func repartitionFixture(t *testing.T) *adl.Application {
	t.Helper()
	b := NewApp("RP")
	b.HostPool(adl.HostPool{Name: "p1"})
	a := b.AddOperator("a", "Beacon").Out(intSchema).Pool("p1")
	c := b.AddOperator("c", "Functor").In(intSchema).Out(intSchema)
	d := b.AddOperator("d", "CountSink").In(intSchema)
	b.Connect(a, 0, c, 0)
	b.Connect(c, 0, d, 0)
	app, err := b.Build(Options{Fusion: FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestRepartitionFuseAll(t *testing.T) {
	app := repartitionFixture(t)
	if len(app.PEs) != 3 {
		t.Fatalf("fixture PEs = %d", len(app.PEs))
	}
	got, err := Repartition(app, Options{Fusion: FuseAll})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PEs) != 1 {
		t.Fatalf("repartitioned PEs = %d", len(got.PEs))
	}
	// Logical view unchanged.
	if len(got.Operators) != 3 || len(got.Connects) != 2 {
		t.Fatal("repartition altered the logical graph")
	}
	// Original untouched.
	if len(app.PEs) != 3 {
		t.Fatal("repartition mutated its input")
	}
}

func TestRepartitionPreservesPools(t *testing.T) {
	app := repartitionFixture(t)
	got, err := Repartition(app, Options{Fusion: FuseNone})
	if err != nil {
		t.Fatal(err)
	}
	pe := got.PEOfOperator("a")
	for _, p := range got.PEs {
		if p.Index == pe && p.Pool != "p1" {
			t.Fatalf("pool lost: %+v", p)
		}
	}
}

func TestRepartitionPoolConflictFails(t *testing.T) {
	app := repartitionFixture(t)
	// Pin the two connected operators to different pools: fusing them
	// into one PE must fail.
	app.HostPools = append(app.HostPools, adl.HostPool{Name: "p2"})
	for i := range app.PEs {
		for _, op := range app.PEs[i].Operators {
			if op == "c" {
				app.PEs[i].Pool = "p2"
			}
		}
	}
	_, err := Repartition(app, Options{Fusion: FuseAll})
	if err == nil || !strings.Contains(err.Error(), "conflicting pools") {
		t.Fatalf("err = %v", err)
	}
}

func TestRepartitionRejectsInvalidInput(t *testing.T) {
	app := repartitionFixture(t)
	app.Name = ""
	if _, err := Repartition(app, Options{}); err == nil {
		t.Fatal("invalid input accepted")
	}
}
