package tuple

// Batch is a schema-homogeneous run of tuples handed through the batch
// execution path: the PE delivery loop presents whole transport frames
// (and coalesced intra-PE runs) to operators implementing the opt-in
// ProcessBatch SPI as one Batch instead of one virtual call per tuple.
//
// A Batch is a view: it points at tuples that already exist (a decoded
// frame block, a run of queued items) and owns nothing; SetView installs
// the run.
//
// Ownership contract for consumers (ProcessBatch implementers): the
// Batch, the tuple slice it exposes and the tuples' storage are valid for
// the duration of the call only — the runtime reuses the view, and the
// tuples of a frame live in a leased Block that is recycled once the
// chunk has been processed and its emits forwarded. Keeping a tuple past
// the call requires Clone; submitting it downstream is always safe (the
// next carrier holds the block), and so is keeping a string or number
// read out of it.
type Batch struct {
	schema *Schema
	ts     []Tuple
}

// SetView points the batch at an existing run of tuples without copying
// any storage; the run must be homogeneous in schema. The previous view
// is discarded.
func (b *Batch) SetView(ts []Tuple) {
	b.ts = ts
	if len(ts) > 0 {
		b.schema = ts[0].schema
	} else {
		b.schema = nil
	}
}

// Schema returns the schema shared by every tuple of the batch (nil for
// an empty view).
func (b *Batch) Schema() *Schema { return b.schema }

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.ts) }

// Tuples returns the batch's tuple run for range loops. The slice is
// only valid under the same lifetime rules as the batch itself.
func (b *Batch) Tuples() []Tuple { return b.ts }
