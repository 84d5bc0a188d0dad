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

// Batch is a reusable group of items delivered through a batch inlet as
// one queue operation, amortising channel synchronisation across a whole
// transport frame. Obtain with GetBatch; handing it to a batch inlet
// transfers ownership to the receiving PE, which recycles it after the
// items have been delivered.
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
// dropped). The item slots are cleared so recycled batches do not pin
// tuple storage.
func PutBatch(b *Batch) {
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
type queued struct {
	port  int
	item  Item
	batch *Batch
	sync  *syncMsg
}
