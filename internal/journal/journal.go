// Package journal is a platform instance's one record of what it did:
// a bounded, append-only ring of typed events that SAM, its PEs, the
// orchestrators and the chaos runner write to (the paper's §7 journal,
// widened from actuations to the platform's own state changes). Every
// event carries the transaction id of the orchestrator event whose
// handler caused it, when there was one, so a reader can follow one PE
// from the fault through each restart attempt to the actuation that
// asked for it.
//
// The ring records control-plane facts only: no tuple path writes to
// it, and event delivery writes only the handler errors and panics it
// contains.
package journal

import (
	"sync"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/vclock"
)

// Limit is how many events a ring keeps: the newest Limit, older ones
// are overwritten.
const Limit = 4096

// Event is one journalled fact. Fields that do not apply stay zero.
type Event struct {
	// Seq is the ring position: 1-based, contiguous, never reused.
	Seq uint64
	// At is the ring clock's time when the event was added.
	At time.Time
	// Source names the writer: "sam", "pe", "chaos", or an
	// orchestrator's name.
	Source string
	// TxID is the transaction id of the orchestrator event being
	// handled when an orchestrator wrote the event; 0 otherwise.
	TxID uint64
	Job  ids.JobID
	PE   ids.PEID
	// Action names what happened (e.g. "RestartPE", "restart", "crashed").
	Action string
	// Target describes what was acted on (application, host, operator...).
	Target string
	// Attempt numbers the try within a retried actuation, from 1.
	Attempt int
	// Backoff is the pause slept before the next attempt; zero on the
	// final attempt.
	Backoff time.Duration
	// Err is the failure's message, "" when the action succeeded.
	Err string
	// Note is free text: a crash reason, a width change, a count.
	Note string
}

// Ring is a bounded, append-only event journal, safe for concurrent
// use. A nil *Ring discards what is added to it.
type Ring struct {
	clock vclock.Clock

	mu  sync.Mutex
	seq uint64
	buf []Event // grows to Limit, then event seq lives at (seq-1)%Limit
}

// New returns an empty ring stamping events with clock (nil means the
// wall clock).
func New(clock vclock.Clock) *Ring {
	if clock == nil {
		clock = vclock.Real()
	}
	return &Ring{clock: clock}
}

// Add stamps e with the next Seq and the current time, and appends it,
// overwriting the oldest event once the ring holds Limit.
func (r *Ring) Add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e.Seq, e.At = r.seq, r.clock.Now()
	if len(r.buf) < Limit {
		r.buf = append(r.buf, e)
	} else {
		r.buf[(r.seq-1)%Limit] = e
	}
}

// Events returns a copy of the kept events, oldest first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Until the ring wraps, seq == len(buf): the split puts all of buf
	// second and nothing first.
	oldest := int(r.seq % Limit)
	out := make([]Event, 0, len(r.buf))
	return append(append(out, r.buf[oldest:]...), r.buf[:oldest]...)
}
