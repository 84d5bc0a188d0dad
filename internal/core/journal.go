package core

import (
	"slices"

	"streamorca/internal/journal"
)

// This file implements the paper's §7 fault-tolerance extension: every
// delivered event carries a transaction id, and every actuation performed
// through the ORCA service is journalled — in the platform instance's
// event ring, under the orchestrator's name — together with the
// transaction id of the event whose handler issued it. With the journal,
// event delivery becomes auditable and actuations become replayable:
// after an orchestrator restart, the last journalled transaction id tells
// exactly which event handling completed its side effects.

// ActuationJournal returns what this orchestrator journalled, oldest
// first: its actuations, and the handler errors and panics it contained.
// It is the platform ring (sam.SAM.Journal) filtered on Source == Name,
// so it keeps at most journal.Limit events, fewer when the platform
// wrote some of the latest.
func (s *Service) ActuationJournal() []journal.Event {
	return slices.DeleteFunc(s.cfg.SAM.Journal().Events(), func(e journal.Event) bool {
		return e.Source != s.cfg.Name
	})
}

// CurrentTxID returns the transaction id of the event currently being
// handled, or 0 outside a handler. ORCA logic can persist it alongside
// its own state to make adaptation decisions replay-safe.
func (s *Service) CurrentTxID() uint64 { return s.currentTx.Load() }

// record journals one event of this orchestrator under the current
// transaction, failed when err is non-nil.
func (s *Service) record(e journal.Event, err error) {
	e.Source, e.TxID = s.cfg.Name, s.currentTx.Load()
	if err != nil {
		e.Err = err.Error()
	}
	s.cfg.SAM.Journal().Add(e)
}

// assignTx stamps the event's context with the next transaction id and
// returns it.
func (s *Service) assignTx(d *eventData) uint64 {
	tx := s.nextTx.Add(1)
	d.ctx.setTx(tx)
	return tx
}
