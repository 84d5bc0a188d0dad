// Package transport implements inter-PE stream links. In System S these
// are TCP connections between PE processes; here each link serialises
// tuples through the binary codec — a tuple's numeric slots at fixed
// width, then its strings length-prefixed; tuple.Encode has the layout —
// and hands the decoded copy to the remote PE's inlet. Round-tripping
// through bytes keeps the byte-count built-in metrics honest and
// guarantees no accidental sharing of tuple storage across the PE
// boundary (so killing a PE loses exactly its own state).
//
// Links batch: a sender appends its run of items to a bounded pending
// buffer — SendRun, the pe.Outlet a port's flush calls once per run;
// Send is its one-item form — and a per-link flusher goroutine drains
// whatever has accumulated, encoding up to MaxFrameTuples tuples per
// frame and delivering each decoded frame to the remote PE as one
// pe.Batch — one pointer append into the receiving operator's inbox,
// whose capacity counts the frame's tuples. Under load
// frames fill and the per-tuple cost of queue synchronisation, codec
// buffers, and tuple storage amortises to zero steady-state allocations
// (a frame decodes into a leased tuple.Block, which the receiving side
// recycles when it puts the batch back; the tuple headers are the link's
// own scratch, copied into the batch; the frame's strings share one
// allocation, tuple.FrameDecoder's, so a receiver may keep a decoded
// string, which keeps its frame's string bytes alive); when the stream is
// sparse the flusher drains immediately ("flush on queue drain"), so an
// idle link adds only a goroutine handoff of latency. Punctuation flushes
// the frame under construction and is delivered in position, preserving
// stream order. Like an inbox, the pending buffer holds the leased
// blocks of its items until their run has been encoded or discarded, so
// a sender may recycle its tuples as soon as SendRun returns.
//
// The operator inbox in package pe is the same swap-buffer mechanism.
// The two stay separate types: a link's Close drains what is pending,
// Discard drops it and Flush waits on an idle condition under the same
// mutex, none of which an inbox has, and sharing one queue came out
// larger than the pending/scratch/cond fields it would replace.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"streamorca/internal/metrics"
	"streamorca/internal/pe"
	"streamorca/internal/tuple"
)

// markOverhead is the on-wire size we account for a punctuation frame.
const markOverhead = 1

// MaxFrameTuples is the largest number of tuples encoded into one frame
// and delivered as one batch; a leased tuple.Block holds as many.
const MaxFrameTuples = 64

// maxPending bounds the sender-side buffer; a full buffer blocks the
// sender, preserving the backpressure a synchronous link used to provide.
const maxPending = 1024

// Link is one batching cross-PE stream connection. SendRun (the
// pe.Outlet) and Send may be called from any producer goroutine; a
// dedicated flusher drains the pending buffer, frames, and delivers.
// Close drains whatever is pending and stops the flusher; a closed link
// drops further sends, the connection-level behaviour of a torn-down
// TCP link.
type Link struct {
	schema    *tuple.Schema
	remote    func(*pe.Batch)
	sentBytes *metrics.Counter
	recvBytes *metrics.Counter
	onErr     func(error)

	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	idle     sync.Cond
	pending  []pe.Item
	scratch  []pe.Item
	// held lists pending's holds on leased blocks — a call takes one
	// per run of its items sharing a block, which a re-scan of pending,
	// where calls' runs merge, would miscount — and is swapped with it.
	held        []*tuple.Block
	heldScratch []*tuple.Block
	shipping    bool
	closed      bool
	discard     atomic.Bool
	done        chan struct{}

	offs []int         // per-tuple end offsets within the frame buffer
	hdrs []tuple.Tuple // decode-block header scratch, cleared after each frame
}

// NewLink builds a link shipping items to remote, which receives decoded
// batches and owns them (pe.ExternalBatchInlet has the right shape).
// sentBytes and recvBytes are the PE-level byte counters of the sending
// and receiving containers (either may be nil). Tuples that fail to
// round-trip the codec are dropped after invoking onErr; a nil onErr drops
// silently (the connection-level behaviour of a lossy crash-prone link).
// The caller must Close the link when the connection is torn down.
func NewLink(schema *tuple.Schema, remote func(*pe.Batch), sentBytes, recvBytes *metrics.Counter, onErr func(error)) *Link {
	l := &Link{
		schema:    schema,
		remote:    remote,
		sentBytes: sentBytes,
		recvBytes: recvBytes,
		onErr:     onErr,
		done:      make(chan struct{}),
	}
	l.notEmpty.L = &l.mu
	l.notFull.L = &l.mu
	l.idle.L = &l.mu
	go l.flusher()
	return l
}

// SendRun enqueues a run of items for delivery, in order; it is the
// link's pe.Outlet. As much of the run as fits is appended under one
// hold of the lock; while the pending buffer is full the sender waits
// (backpressure) and then appends the rest. The items are copied and
// their leased blocks held, so the slice and the tuples stay the
// caller's. A closed link drops what has not been appended yet.
func (l *Link) SendRun(items []pe.Item) {
	l.mu.Lock()
	for len(items) > 0 {
		for len(l.pending) >= maxPending && !l.closed {
			l.notFull.Wait()
		}
		if l.closed {
			break
		}
		n := min(len(items), maxPending-len(l.pending))
		if len(l.pending) == 0 {
			l.notEmpty.Signal()
		}
		l.pending = append(l.pending, items[:n]...)
		var prev *tuple.Block
		for i := range items[:n] {
			if b := items[i].T.Block(); b != prev {
				l.hold(b)
				prev = b
			}
		}
		items = items[n:]
	}
	l.mu.Unlock()
}

// hold takes the pending buffer's hold on b, if any; lock held.
func (l *Link) hold(b *tuple.Block) {
	if b != nil {
		b.Retain()
		l.held = append(l.held, b)
	}
}

// letGo drops a list of holds and clears it for reuse.
func letGo(held []*tuple.Block) {
	for _, b := range held {
		b.Release()
	}
	clear(held)
}

// Send is SendRun for one item, without the slice: the form a caller
// holding single items uses (the benchmark's hop probe times it).
func (l *Link) Send(it pe.Item) {
	l.mu.Lock()
	for len(l.pending) >= maxPending && !l.closed {
		l.notFull.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.hold(it.T.Block())
	l.pending = append(l.pending, it)
	if len(l.pending) == 1 {
		l.notEmpty.Signal()
	}
	l.mu.Unlock()
}

// Flush blocks until everything sent so far has been delivered to remote.
func (l *Link) Flush() {
	l.mu.Lock()
	for len(l.pending) > 0 || l.shipping {
		l.idle.Wait()
	}
	l.mu.Unlock()
}

// Close drains the pending buffer, delivers it, and stops the flusher.
// Items sent after Close are dropped. Close is idempotent.
func (l *Link) Close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.notEmpty.Broadcast()
		l.notFull.Broadcast()
	}
	l.mu.Unlock()
	<-l.done
}

// Discard tears the link down without draining: pending items are dropped
// (and their holds with them) and the flusher stops shipping at the next
// frame boundary. It does not block waiting for the flusher — the
// teardown path for a cancelled job or restarted PE, where in-flight
// tuples are lost exactly as a severed TCP connection would lose them.
func (l *Link) Discard() {
	l.discard.Store(true)
	l.mu.Lock()
	if !l.closed {
		l.closed = true
	}
	clear(l.pending)
	l.pending = l.pending[:0]
	letGo(l.held)
	l.held = l.held[:0]
	l.notEmpty.Broadcast()
	l.notFull.Broadcast()
	l.mu.Unlock()
}

// flusher is the link's delivery goroutine: swap out whatever is pending,
// ship it, repeat; exit once closed and drained.
func (l *Link) flusher() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && !l.closed {
			l.idle.Broadcast()
			l.notEmpty.Wait()
		}
		if len(l.pending) == 0 {
			// Closed and drained.
			l.idle.Broadcast()
			l.mu.Unlock()
			return
		}
		batch, held := l.pending, l.held
		l.pending, l.held = l.scratch[:0], l.heldScratch[:0]
		l.scratch, l.heldScratch = batch, held
		l.shipping = true
		l.notFull.Broadcast()
		l.mu.Unlock()

		l.ship(batch)
		// Encoded, or abandoned to a Discard: the link is done with the
		// run. Clear the slots before they become the next scratch
		// buffer, so an idle link does not pin the last burst's storage.
		letGo(held)
		clear(batch)

		l.mu.Lock()
		l.shipping = false
		l.idle.Broadcast()
		l.mu.Unlock()
	}
}

// ship frames and delivers one drained run of items, preserving order:
// consecutive tuples accumulate into frames of up to MaxFrameTuples;
// punctuation flushes the open frame and travels in position.
func (l *Link) ship(items []pe.Item) {
	i := 0
	for i < len(items) {
		if l.discard.Load() {
			return
		}
		if items[i].IsMark() {
			if l.sentBytes != nil {
				l.sentBytes.Add(markOverhead)
			}
			if l.recvBytes != nil {
				l.recvBytes.Add(markOverhead)
			}
			b := pe.GetBatch()
			b.Items = append(b.Items, items[i])
			l.remote(b)
			i++
			continue
		}
		i = l.shipFrame(items, i)
	}
}

// shipFrame encodes a run of tuples starting at items[i] into one frame,
// decodes it into a leased tuple block, and delivers the block as one
// batch carrying its birth hold, which the receiver's PutBatch drops. It
// returns the index of the first unconsumed item.
func (l *Link) shipFrame(items []pe.Item, i int) int {
	bp := tuple.GetBuf()
	buf := *bp
	defer func() { *bp = buf; tuple.PutBuf(bp) }()
	offs := l.offs[:0]
	j := i
	for j < len(items) && len(offs) < MaxFrameTuples && !items[j].IsMark() {
		n0 := len(buf)
		var err error
		buf, err = tuple.Encode(buf, items[j].T)
		if err != nil {
			buf = buf[:n0]
			if l.onErr != nil {
				l.onErr(fmt.Errorf("transport: encode: %w", err))
			}
			j++
			continue
		}
		offs = append(offs, len(buf))
		j++
	}
	l.offs = offs
	if len(offs) == 0 {
		return j
	}
	if l.sentBytes != nil {
		l.sentBytes.Add(int64(len(buf)))
	}
	block, lease := tuple.Lease(l.schema, l.hdrs, len(offs))
	l.hdrs = block
	defer clear(block)
	var dec tuple.FrameDecoder
	dec.Start(l.schema, buf, len(offs))
	b := pe.GetBatch()
	received := 0
	start := 0
	for k, end := range offs {
		used, err := dec.DecodeInto(&block[k], buf[start:end])
		if err != nil || used != end-start {
			if l.onErr != nil {
				if err == nil {
					err = errors.New("leftover bytes")
				}
				l.onErr(fmt.Errorf("transport: decode (%d of %d bytes): %v", used, end-start, err))
			}
		} else {
			b.Items = append(b.Items, pe.TupleItem(block[k]))
			received += end - start
		}
		start = end
	}
	if l.recvBytes != nil && received > 0 {
		l.recvBytes.Add(int64(received))
	}
	if len(b.Items) == 0 {
		lease.Release() // nothing decoded: no batch to carry the birth hold
	}
	if len(b.Items) > 0 && !l.discard.Load() {
		l.remote(b)
	} else {
		pe.PutBatch(b)
	}
	return j
}
