package compiler

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"streamorca/internal/adl"
	"streamorca/internal/tuple"
)

// randomProgram describes a generated builder program for the
// partitioning property tests.
type randomProgram struct {
	nOps   int
	tags   []int // colocation tag per op; -1 = none, -2 = isolated
	chain  bool  // connect ops in a chain
	fusion FusionMode
}

func genProgram(r *rand.Rand) randomProgram {
	p := randomProgram{
		nOps:   1 + r.Intn(24),
		fusion: FusionMode(r.Intn(3)),
		chain:  r.Intn(2) == 0,
	}
	nTags := 1 + r.Intn(4)
	for i := 0; i < p.nOps; i++ {
		switch r.Intn(4) {
		case 0:
			p.tags = append(p.tags, -2) // isolated
		case 1:
			p.tags = append(p.tags, -1) // untagged
		default:
			p.tags = append(p.tags, r.Intn(nTags))
		}
	}
	return p
}

func (p randomProgram) build() (*AppBuilder, []string) {
	b := NewApp("Prop")
	var prev *OpHandle
	var names []string
	for i := 0; i < p.nOps; i++ {
		h := b.AddOperator(fmt.Sprintf("op%02d", i), "Functor").In(intSchema).Out(intSchema)
		switch {
		case p.tags[i] == -2:
			h.Isolate()
		case p.tags[i] >= 0:
			h.Colocate(fmt.Sprintf("tag%d", p.tags[i]))
		}
		if p.chain && prev != nil {
			b.Connect(prev, 0, h, 0)
		}
		prev = h
		names = append(names, h.Name())
	}
	return b, names
}

// TestPartitionProperties drives random builder programs through every
// fusion mode and checks the partitioning invariants:
//  1. every operator is assigned to exactly one PE;
//  2. isolated operators sit alone;
//  3. operators sharing a colocation tag share a PE;
//  4. PE indices are dense from 0.
func TestPartitionProperties(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := genProgram(r)
		b, names := p.build()
		app, err := b.Build(Options{Fusion: p.fusion})
		if err != nil {
			// The only legitimate failure for these programs is an
			// isolated+colocated conflict, which genProgram never emits.
			t.Logf("seed %d: unexpected Build error: %v", seed, err)
			return false
		}
		seen := make(map[string]int)
		for _, pe := range app.PEs {
			for _, op := range pe.Operators {
				if _, dup := seen[op]; dup {
					return false
				}
				seen[op] = pe.Index
			}
		}
		if len(seen) != len(names) {
			return false
		}
		tagPE := make(map[int]int)
		for i, name := range names {
			switch {
			case p.tags[i] == -2:
				if len(app.OperatorsInPE(seen[name])) != 1 {
					return false
				}
			case p.tags[i] >= 0:
				if prev, ok := tagPE[p.tags[i]]; ok && prev != seen[name] {
					return false
				}
				tagPE[p.tags[i]] = seen[name]
			}
		}
		for i, pe := range app.PEs {
			if pe.Index != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedADLAlwaysRoundTrips: every generated ADL must survive a
// marshal/unmarshal cycle with identical partitioning.
func TestGeneratedADLAlwaysRoundTrips(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := genProgram(r)
		b, names := p.build()
		app, err := b.Build(Options{Fusion: p.fusion})
		if err != nil {
			return false
		}
		data, err := app.Marshal()
		if err != nil {
			return false
		}
		got, err := unmarshalADL(data)
		if err != nil {
			return false
		}
		for _, name := range names {
			if got.PEOfOperator(name) != app.PEOfOperator(name) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

var _ = tuple.Int

// unmarshalADL avoids an import cycle on the adl package's test helpers.
func unmarshalADL(data []byte) (*appView, error) {
	a, err := adl.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return &appView{a}, nil
}

type appView struct{ *adl.Application }
