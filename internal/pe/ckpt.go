package pe

import (
	"fmt"

	"streamorca/internal/ckpt"
	"streamorca/internal/journal"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
)

// This file implements the PE's checkpoint driver: periodic and
// on-demand state capture of the container's stateful operators, and
// the restore pass a restarted container runs before processing begins.
//
// Capture is per-operator atomic — each operator's SaveState runs on
// its processing goroutine, serialised with tuple delivery — but not
// globally consistent across operators: the snapshot of op A may be a
// few tuples ahead of op B's. That matches the paper's partial
// fault-tolerance model, where restart-based recovery tolerates bounded
// inconsistency in exchange for staying off the tuple hot path.

// Checkpoint captures the state of every stateful operator in the
// container and persists the snapshot, returning its encoded size.
// Safe to call concurrently with processing; concurrent checkpoints
// serialise. It fails when checkpointing is not configured or the PE
// is not running.
func (p *PE) Checkpoint() (int, error) {
	if p.cfg.Ckpt.Store == nil {
		return 0, fmt.Errorf("pe %s: checkpointing not configured", p.cfg.ID)
	}
	if p.State() != Running {
		return 0, fmt.Errorf("pe %s: not running", p.cfg.ID)
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	// The snapshot header records the capture instant on the platform
	// clock, so a later restore can compute its exact staleness.
	capturedAt := p.cfg.Clock.Now()
	w := ckpt.NewWriterAt(capturedAt)
	defer w.Close()
	for _, rt := range p.statefuls {
		st := rt.op.(opapi.StatefulOperator)
		err := w.Section(rt.spec.Name, rt.spec.Kind, func(e *ckpt.Encoder) error {
			return rt.capture(st, e)
		})
		if err != nil {
			return 0, fmt.Errorf("pe %s: checkpoint %s: %w", p.cfg.ID, rt.spec.Name, err)
		}
	}
	data := w.Finish()
	if err := p.cfg.Ckpt.Store.Save(p.cfg.Ckpt.Key, data); err != nil {
		return 0, fmt.Errorf("pe %s: persist checkpoint: %w", p.cfg.ID, err)
	}
	p.peMetrics.Counter(metrics.PECheckpoints).Inc()
	p.peMetrics.Counter(metrics.PECheckpointBytes).Add(int64(len(data)))
	p.noteStateAnchorAt(capturedAt)
	return len(data), nil
}

// capture runs SaveState at a safe point. Operators with inputs are
// captured on their processing goroutine (a sync message through the
// input queue, like Control); sources are captured inline and must
// synchronise internally, as StatefulOperator documents.
func (rt *opRuntime) capture(st opapi.StatefulOperator, e *ckpt.Encoder) error {
	if len(rt.spec.Inputs) == 0 {
		return st.SaveState(e)
	}
	msg := &syncMsg{fn: func() error { return st.SaveState(e) }, done: make(chan error, 1)}
	if !rt.in.put(&queued{sync: msg}, 0) {
		// A closed inbox: the consume loop has exited or, the container
		// dying, is about to.
		<-rt.loopDone
		return rt.captureQuiescent(st, e)
	}
	// A dying container needs no case of its own: the loop notices within
	// one chunk and exits, and until then fn may still be running against
	// the encoder's pooled buffer, which returning would recycle.
	select {
	case err := <-msg.done:
		return err
	case <-rt.loopDone:
		// The loop exited after our message was queued. If it ran the
		// capture on its way out the result is buffered; if it never
		// claimed it, fall back to the quiescent path; a claim without a
		// result means SaveState panicked the loop.
		select {
		case err := <-msg.done:
			return err
		default:
		}
		if !msg.claim() {
			return fmt.Errorf("pe %s: capture of %s aborted by operator crash", rt.pe.cfg.ID, rt.spec.Name)
		}
		return rt.captureQuiescent(st, e)
	}
}

// captureQuiescent captures an operator whose consume loop has exited.
// Only the clean all-inputs-finalised exit is safe to capture inline: a
// loop that ended in a crash or panic may have left the state
// mid-mutation, and persisting it would overwrite the last good
// snapshot with a CRC-valid but semantically corrupt one.
func (rt *opRuntime) captureQuiescent(st opapi.StatefulOperator, e *ckpt.Encoder) error {
	if !rt.finalised.Load() {
		return fmt.Errorf("pe %s: operator %s stopped without finalising", rt.pe.cfg.ID, rt.spec.Name)
	}
	return st.SaveState(e)
}

// restoreState loads the PE's snapshot (if any) and hands each section
// to its operator. A missing snapshot is a clean cold start; a corrupt
// or version-skewed one is journalled and discarded — recovery availability
// beats state fidelity, so a bad snapshot never blocks a restart.
func (p *PE) restoreState() {
	data, ok, err := p.cfg.Ckpt.Store.Load(p.cfg.Ckpt.Key)
	if err != nil {
		p.note(journal.Event{Action: "load-checkpoint", Target: p.cfg.Ckpt.Key, Err: err.Error()})
		return
	}
	if !ok {
		return
	}
	snap, err := ckpt.Parse(data)
	if err != nil {
		p.note(journal.Event{Action: "discard-checkpoint", Target: p.cfg.Ckpt.Key, Err: err.Error()})
		return
	}
	restored := 0
	for _, sec := range snap.Sections() {
		rt, ok := p.byName[sec.Name]
		if !ok || rt.spec.Kind != sec.Kind {
			p.note(journal.Event{Action: "skip-section", Target: sec.Name,
				Note: "no operator of kind " + sec.Kind})
			continue
		}
		st, ok := rt.op.(opapi.StatefulOperator)
		if !ok {
			continue
		}
		err := p.restoreSection(st, sec)
		if err != nil {
			p.note(journal.Event{Action: "restore-section", Target: sec.Name, Err: err.Error(), Note: "starting fresh"})
			continue
		}
		restored++
	}
	if restored > 0 {
		p.peMetrics.Counter(metrics.PEStateRestores).Add(int64(restored))
		// The restored container's state is anchored to the adopted
		// snapshot. A v2 snapshot carries its capture instant, so the
		// age gauge starts at the state's true staleness; a v1 snapshot
		// does not, and the restore moment stands in for it — optimistic
		// by at most the capture-to-restart delay, which periodic
		// checkpointing bounds to about one interval.
		at, ok := snap.CapturedAt()
		if !ok {
			at = p.cfg.Clock.Now()
		}
		p.noteStateAnchorAt(at)
	}
}

// restoreSection hands one snapshot section to its operator, containing
// panics: the CRC only guards accidental corruption, so a forged or
// pathological payload must degrade to a fresh start for that operator,
// never take down the restart ("a bad snapshot never blocks a restart").
func (p *PE) restoreSection(st opapi.StatefulOperator, sec ckpt.Section) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("restore panicked: %v", r)
		}
	}()
	dec := sec.Decoder()
	err = st.RestoreState(dec)
	if err == nil {
		err = dec.Err()
	}
	return err
}

// ckptLoop drives periodic checkpoints on the PE clock until the
// container leaves Running.
func (p *PE) ckptLoop() {
	defer p.wg.Done()
	tk := p.cfg.Clock.NewTicker(p.cfg.Ckpt.Interval)
	defer tk.Stop()
	for {
		select {
		case <-tk.C():
			if _, err := p.Checkpoint(); err != nil {
				p.note(journal.Event{Action: "checkpoint", Err: err.Error()})
			}
		case <-p.kill:
			return
		}
	}
}
