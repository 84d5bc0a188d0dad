package pe

import (
	"sync"
	"sync/atomic"

	"streamorca/internal/tuple"
)

// Item is one unit travelling on a stream connection: either a tuple
// (Mark == NoMark) or a punctuation. Items cross PE boundaries through the
// transport package, which serialises the tuple payload.
type Item struct {
	T    tuple.Tuple
	Mark tuple.Mark
}

// TupleItem wraps a tuple.
func TupleItem(t tuple.Tuple) Item { return Item{T: t} }

// MarkItem wraps a punctuation.
func MarkItem(m tuple.Mark) Item { return Item{Mark: m} }

// IsMark reports whether the item is a punctuation.
func (it Item) IsMark() bool { return it.Mark != tuple.NoMark }

// holdRun takes the holds of a carrier that queues items behind those it
// already has: one on the leased block (tuple.Block) of every
// consecutive run of items sharing one; a run that continues behind's
// last item takes none, unleased tuples and marks have no block.
// releaseRun over the whole queue, unchanged, drops exactly these.
func holdRun(behind, items []Item) { eachRun(behind, items, (*tuple.Block).Retain) }

func releaseRun(items []Item) { eachRun(nil, items, (*tuple.Block).Release) }

func eachRun(behind, items []Item, f func(*tuple.Block)) {
	var prev *tuple.Block
	if n := len(behind); n > 0 {
		prev = behind[n-1].T.Block()
	}
	for i := range items {
		if b := items[i].T.Block(); b != prev {
			if prev = b; b != nil {
				f(b)
			}
		}
	}
}

// Batch is a reusable group of items delivered through a batch inlet as
// one queue operation, amortising channel synchronisation across a whole
// transport frame. Obtain with GetBatch; handing it to a batch inlet
// transfers ownership to the receiving PE, which recycles it after the
// items have been delivered. It carries its holds on leased blocks
// (holdRun over Items, taken by whoever filled it; for a link's decoded
// frame, the block's birth hold), and PutBatch is what drops them.
type Batch struct {
	Items []Item
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty pooled batch.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Items = b.Items[:0]
	return b
}

// PutBatch recycles a batch whose items have been fully delivered (or
// dropped) and drops its holds: the tuples are not to be read afterwards.
// The item slots are cleared so recycled batches do not pin tuple storage.
func PutBatch(b *Batch) {
	releaseRun(b.Items)
	clear(b.Items)
	b.Items = b.Items[:0]
	batchPool.Put(b)
}

// syncMsg runs a function on the operator's processing goroutine,
// serialised with tuple delivery: an orchestrator control command for a
// Controllable operator, or the checkpoint driver's state capture. The
// claim handshake gives fn exactly one owner: the consume loop claims
// before running, and a sender that gives up claims to invalidate the
// message, so an abandoned fn can never run against resources the sender
// has since released (the capture encoder's pooled buffer).
type syncMsg struct {
	fn      func() error
	done    chan error
	claimed atomic.Bool
}

// claim reports whether the caller won ownership of fn.
func (m *syncMsg) claim() bool { return m.claimed.CompareAndSwap(false, true) }

// queued is one inbox entry: a single item, a whole batch (a transport
// frame, a fused neighbour's coalesced emits) or a synchronised call.
// The single item is an array so the consume loop can slice it in place.
type queued struct {
	port  int
	item  [1]Item
	batch *Batch
	sync  *syncMsg
}

// release lets go of an entry that left the inbox or was refused by it:
// a batch is recycled with its holds, a single item's hold dropped.
func (q *queued) release() {
	if q.batch != nil {
		PutBatch(q.batch)
	} else if b := q.item[0].T.Block(); b != nil {
		b.Release()
	}
}
