package tuple

import (
	"testing"
	"time"
)

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestLeaseFillsCallerHeaders: the leasing constructor fills caller-owned
// headers — reusing their backing array, overwriting whatever they held —
// with independent zero-valued tuples that all point at the leased block.
func TestLeaseFillsCallerHeaders(t *testing.T) {
	s := testSchema(t)
	first, blk := Lease(s, nil, 4)
	if len(first) != 4 || blk == nil {
		t.Fatalf("len = %d, block %v; want 4 leased tuples", len(first), blk)
	}
	for i, tu := range first {
		if tu.Block() != blk || tu.Schema() != s {
			t.Fatalf("tuple %d: block %p schema %v", i, tu.Block(), tu.Schema())
		}
	}
	if err := first[1].SetInt("id", 7); err != nil {
		t.Fatal(err)
	}
	if err := first[1].SetString("sym", "IBM"); err != nil {
		t.Fatal(err)
	}
	if first[0].Int("id") != 0 || first[2].String("sym") != "" {
		t.Fatal("tuples of one block share slots")
	}

	second, blk2 := Lease(s, first, 3)
	if len(second) != 3 || &second[0] != &first[0] {
		t.Fatalf("headers not reused: len %d", len(second))
	}
	if blk2 == blk {
		t.Fatal("a block still held was leased again")
	}
	if first[3].Block() != blk { // beyond the new length: untouched, still a valid old tuple
		t.Fatal("header beyond the requested count was rewritten")
	}
	if grown, _ := Lease(s, second, 9); len(grown) != 9 || !grown[8].Valid() {
		t.Fatalf("short scratch not grown: len %d", len(grown))
	}
	if none, b := Lease(s, second, 0); len(none) != 0 || b != nil {
		t.Fatalf("empty lease: %d tuples, block %v", len(none), b)
	}
}

// TestLeaseRecyclesOnLastRelease: the birth hold and every Retain must be
// dropped before the block comes back, a reused block reads as fresh, and
// tuples of New, NewBlock and Clone never carry one.
func TestLeaseRecyclesOnLastRelease(t *testing.T) {
	s := testSchema(t)
	ts, blk := Lease(s, nil, blockTuples)
	for _, tu := range ts {
		if err := tu.SetInt("id", 99); err != nil {
			t.Fatal(err)
		}
		if err := tu.SetString("sym", "stale"); err != nil {
			t.Fatal(err)
		}
		if err := tu.SetTime("at", time.Unix(1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	kept := ts[5].Clone()
	// Hand-off of part of the block: two carriers each hold a run of it.
	blk.Retain()
	blk.Retain()
	blk.Release() // the producer's birth hold
	blk.Release() // first carrier done
	if got := blk.holds.Load(); got != 1 {
		t.Fatalf("holds = %d with one carrier left", got)
	}
	if ts[63].Int("id") != 99 {
		t.Fatal("block reused while a carrier still holds it")
	}
	blk.Release()
	if poisonRecycled && (ts[5].Int("id") != poisonNum || ts[5].String("sym") != poisonStr) {
		t.Fatalf("a tuple kept past the last release reads %s, want the poison", ts[5].Format())
	}

	if kept.Block() != nil || New(s).Block() != nil || NewBlock(s, 2)[1].Block() != nil {
		t.Fatal("an unleased tuple carries a block")
	}
	if kept.Int("id") != 99 || kept.String("sym") != "stale" {
		t.Fatalf("clone changed by the release: %s", kept.Format())
	}
	// sync.Pool may drop a put (it does so at random under the race
	// detector), so only a block that does come back is checked.
	for try := 0; try < 100; try++ {
		again, b := Lease(s, nil, 3)
		if b != blk {
			continue
		}
		for i, tu := range again {
			if tu.Int("id") != 0 || tu.String("sym") != "" || !tu.Time("at").IsZero() {
				t.Fatalf("tuple %d of a reused block is not zero-valued: %s", i, tu.Format())
			}
		}
		return
	}
	if !poisonRecycled {
		t.Fatal("released block never leased again")
	}
}

func TestBlockOverReleasePanics(t *testing.T) {
	s := testSchema(t)
	_, blk := Lease(s, nil, 1)
	blk.Release()
	mustPanic(t, "a second Release of the birth hold", blk.Release)
	_, blk = Lease(s, nil, 1)
	blk.holds.Store(0)
	mustPanic(t, "Retain of a block nobody holds", blk.Retain)
}

// TestLeaseBeyondBlockFallsBack: a run longer than a block gets unleased
// storage, and the nil block accepts the calls a real one would.
func TestLeaseBeyondBlockFallsBack(t *testing.T) {
	s := testSchema(t)
	ts, blk := Lease(s, nil, blockTuples+1)
	if len(ts) != blockTuples+1 || blk != nil {
		t.Fatalf("%d tuples, block %v; want %d unleased", len(ts), blk, blockTuples+1)
	}
	for i, tu := range ts {
		if tu.Block() != nil || !tu.Time("at").IsZero() || tu.Int("id") != 0 {
			t.Fatalf("tuple %d: %s, block %v", i, tu.Format(), tu.Block())
		}
	}
	blk.Retain()
	blk.Release()
	blk.Release()
}

// TestLeaseSteadyStateAllocatesNothing: lease, release, lease again on
// caller-owned headers costs no allocation once the pool is warm.
func TestLeaseSteadyStateAllocatesNothing(t *testing.T) {
	if poisonRecycled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	s := testSchema(t)
	hdrs := make([]Tuple, 0, blockTuples)
	allocs := testing.AllocsPerRun(100, func() {
		var blk *Block
		hdrs, blk = Lease(s, hdrs, blockTuples)
		blk.Release()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per lease cycle, want 0", allocs)
	}
}
