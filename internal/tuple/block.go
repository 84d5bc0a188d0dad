package tuple

import (
	"slices"
	"sync/atomic"
)

// blockTuples is the capacity of a leased Block: one transport frame
// (transport.MaxFrameTuples), one PE chunk.
const blockTuples = 64

// Block is the storage of up to blockTuples tuples of one schema, leased
// to a producer and recycled through the schema once nobody holds it.
// Every tuple carved from it points back at it (Tuple.Block), and one
// rule governs its life: whoever queues such tuples takes one hold per
// consecutive run of them (Retain), and whoever is done with the run
// drops the same count (Release). The release that reaches zero hands
// the block to the next Lease, which overwrites it. A path that fails
// forgets its holds instead of dropping them: the block then stays the
// garbage collector's, like unleased storage.
type Block struct {
	schema *Schema
	nums   []int64
	strs   []string
	holds  atomic.Int32
}

// Lease returns hdrs[:n] (grown if its capacity is short) filled with
// fresh zero-valued tuples carved from a leased block, and the block, on
// which the caller has the one birth hold: it passes that on with the
// tuples or drops it once they are queued elsewhere. The headers are the
// caller's scratch, copied by value on hand-over. A run longer than a
// block gets unleased storage and a nil block; Retain and Release take one.
func Lease(s *Schema, hdrs []Tuple, n int) ([]Tuple, *Block) {
	if n <= 0 {
		return hdrs[:0], nil
	}
	ts := slices.Grow(hdrs[:0], n)[:n]
	if n > blockTuples {
		carve(ts, s, make([]int64, n*s.nNums), make([]string, n*s.nStrs), nil)
		return ts, nil
	}
	b, _ := s.blocks.Get().(*Block)
	if b == nil {
		b = &Block{schema: s, nums: make([]int64, blockTuples*s.nNums), strs: make([]string, blockTuples*s.nStrs)}
	} else {
		clear(b.nums[:n*s.nNums])
		clear(b.strs[:n*s.nStrs]) // empty already, unless poisoned
	}
	b.holds.Store(1)
	carve(ts, s, b.nums, b.strs, b)
	return ts, b
}

// Retain takes one more hold on the block, for a carrier about to queue
// tuples of it; the caller's tuples must themselves be held at the time.
func (b *Block) Retain() {
	if b != nil && b.holds.Add(1) <= 1 {
		panic("tuple: Retain of a block nobody holds")
	}
}

// What a recycled block reads as in a race build (poisonRecycled), so
// that a tuple kept beyond its holder's hold — an operator retaining its
// input without Clone, a link remote reading a batch it has put back —
// fails its test instead of quietly reading the next frame.
const (
	poisonNum = -0xDEADB10C
	poisonStr = "<recycled>"
)

// Release drops one hold; the last one recycles the block. Dropping more
// holds than were taken panics.
func (b *Block) Release() {
	if b == nil {
		return
	}
	switch n := b.holds.Add(-1); {
	case n < 0:
		panic("tuple: Block released more often than it was held")
	case n == 0:
		clear(b.strs) // not to pin old strings while pooled
		if poisonRecycled {
			for i := range b.nums {
				b.nums[i] = poisonNum
			}
			for i := range b.strs {
				b.strs[i] = poisonStr
			}
		}
		b.schema.blocks.Put(b)
	}
}
