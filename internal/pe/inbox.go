package pe

import "sync"

// inbox is an operator's bounded input queue, a swap buffer: producers
// append entries under the mutex and the consume goroutine takes
// everything pending in one swap, so an idle queue hands over one tuple
// at once and a busy one hands over a run — the "flush on queue drain"
// of transport.Link's sender side, with no timer and no linger. The
// consumer is woken on the empty→non-empty edge only; producers block
// while limit tuples are pending.
type inbox struct {
	mu       sync.Mutex
	notEmpty sync.Cond // the consumer parks here
	notFull  sync.Cond // producers park here
	pending  []queued
	weight   int // tuples pending: a batch entry weighs its tuples, marks and messages nothing
	limit    int
	closed   bool
}

func newInbox(limit int) *inbox {
	q := &inbox{limit: limit}
	q.notEmpty.L, q.notFull.L = &q.mu, &q.mu
	return q
}

// put appends one entry weighing w tuples, blocking while the inbox is
// full (limit tuples, or limit weightless entries, pending). It reports
// false, queueing nothing, once the inbox is closed.
func (q *inbox) put(e *queued, w int) bool {
	q.mu.Lock()
	for (q.weight >= q.limit || len(q.pending) >= q.limit) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.pending = append(q.pending, *e)
	q.weight += w
	if len(q.pending) == 1 {
		q.notEmpty.Signal()
	}
	q.mu.Unlock()
	return true
}

// take blocks until something is pending and returns all of it together
// with its weight, keeping spare (the caller's previous run, cleared) as
// the next pending buffer. A closed inbox hands over what was still
// pending, then reports false.
func (q *inbox) take(spare []queued) (run []queued, weight int, ok bool) {
	q.mu.Lock()
	for len(q.pending) == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	run, weight = q.pending, q.weight
	q.pending, q.weight = spare[:0], 0
	q.notFull.Broadcast()
	q.mu.Unlock()
	return run, weight, len(run) > 0
}

// close fails every later put and releases blocked producers and the
// parked consumer. Idempotent.
func (q *inbox) close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// depth returns the number of tuples pending.
func (q *inbox) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.weight
}
