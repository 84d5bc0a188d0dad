package sam

import (
	"fmt"
	"slices"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/ckpt"
	"streamorca/internal/compiler"
	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/opapi"
	"streamorca/internal/pe"
)

// ResizeRegion changes the width of a job's key-partitioned parallel
// region at runtime: it recompiles the job's ADL to the new width
// (compiler.ResizeRegion), checkpoints and retires the region's PEs,
// migrates the replicas' per-key operator state between the two
// partitionings through the checkpoint store, swaps in the resized ADL
// and deploys the region at the new width, restoring. PEs outside the
// region keep running untouched; the split/merge pair insulates the
// neighbours from the width change.
//
// State migration is best-effort, in the spirit of "a bad snapshot
// never blocks a restart": the old replicas are checkpointed, their
// snapshots folded together (MergeState) and re-cut along the new
// partitioning (SplitState), and each cut saved under the new replica's
// snapshot key so the restarted replica restores exactly the keys the
// resized hash split will route to it. Any failure on that path —
// unreadable snapshot, store error, a kind that is not a
// PartitionedStateOperator — degrades to a region-wide cold start: all
// region snapshots are deleted and the region restarts empty, losing
// window state but never wedging. In-flight tuples of the region are
// lost, as in every restart (§5.2 loss semantics). When the deploy
// fails the job keeps the resized ADL with the region retired; its PEs
// come back through RestartPE.
func (s *SAM) ResizeRegion(jobID ids.JobID, region string, width int) error {
	if width < 1 {
		return fmt.Errorf("sam: resize region %q: width %d < 1", region, width)
	}

	s.mu.Lock()
	j, ok := s.jobs[jobID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("sam: no job %s", jobID)
	}
	r := j.app.Region(region)
	if r == nil {
		s.mu.Unlock()
		return fmt.Errorf("sam: job %s has no region %q", jobID, region)
	}
	if r.Width == width {
		s.mu.Unlock()
		return nil
	}
	resized, err := compiler.ResizeRegion(j.app, region, width)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("sam: resize region %q of %s: %w", region, jobID, err)
	}
	newR := resized.Region(region)
	old := *r // copy: j.app is swapped below
	oldParts := regionParts(j.app, &old)

	oldReplicas := make([]replicaState, 0, old.Width)
	kind := ""
	if op := j.app.OperatorByName(old.Replicas[0]); op != nil {
		kind = op.Kind
	}
	for _, name := range old.Replicas {
		rp := j.pes[j.app.PEOfOperator(name)]
		if rp == nil {
			s.mu.Unlock()
			return fmt.Errorf("sam: resize region %q of %s: replica %q has no PE", region, jobID, name)
		}
		oldReplicas = append(oldReplicas, replicaState{
			name:      name,
			key:       ckptKey(j.id, rp.id),
			container: rp.container,
			running:   rp.state == "running" && rp.container != nil,
		})
	}

	// Mint runtime PEs for replicas the resize adds, so their snapshot
	// keys exist before migration writes to them; deploy chooses their
	// hosts. Removed replicas drop out of the job's tables; a late exit
	// notification for one simply finds no PE.
	survivors := min(old.Width, width)
	newKeys := make([]string, width)
	copy(newKeys, keysOf(oldReplicas[:survivors]))
	var added []*jpe
	for p := survivors; p < width; p++ {
		s.nextPE++
		rp := &jpe{index: resized.PEOfOperator(newR.Replicas[p]), id: ids.PEID(s.nextPE), state: "stopped"}
		added = append(added, rp)
		newKeys[p] = ckptKey(j.id, rp.id)
	}
	removedKeys := keysOf(oldReplicas[survivors:])
	s.mu.Unlock()

	// Freshen the snapshots about to be migrated, then quiesce the
	// region. Checkpoint failures are tolerable: migration then moves
	// the previous periodic snapshot (or cold-starts the region).
	for _, or := range oldReplicas {
		if or.running && s.cfg.Ckpt != nil {
			if _, err := or.container.Checkpoint(); err != nil {
				s.note(journal.Event{Action: "resize-checkpoint", Job: jobID, Target: region + "/" + or.name}, err)
			}
		}
	}
	s.retire(j, oldParts)

	if s.cfg.Ckpt != nil {
		// Removed replicas' snapshots are garbage once their keys
		// migrated into the surviving partitions.
		garbage := removedKeys
		if err := s.migrateRegionState(oldReplicas, newR, kind, newKeys, width); err != nil {
			s.note(journal.Event{Action: "resize-migrate", Job: jobID, Target: region, Note: "cold-starting region"}, err)
			garbage = append(append([]string(nil), newKeys...), removedKeys...)
		}
		for _, k := range garbage {
			if derr := s.cfg.Ckpt.Delete(k); derr != nil {
				s.note(journal.Event{Action: "drop-checkpoint", Job: jobID, Target: k}, derr)
			}
		}
	}

	// Swap in the resized ADL and deploy the region.
	s.mu.Lock()
	for _, name := range old.Replicas[survivors:] {
		idx := j.app.PEOfOperator(name)
		if rp := j.pes[idx]; rp != nil && len(j.app.OperatorsInPE(idx)) == 1 {
			delete(j.pes, idx)
			delete(j.byID, rp.id)
		}
	}
	j.app = resized
	for _, rp := range added {
		j.pes[rp.index] = rp
		j.byID[rp.id] = rp
	}
	s.mu.Unlock()

	if err := s.deploy(j, regionParts(resized, newR), true); err != nil {
		return fmt.Errorf("sam: resize region %q of %s: %w", region, jobID, err)
	}
	s.note(journal.Event{Action: "resized", Job: jobID, Target: region, Note: fmt.Sprintf("width %d -> %d", old.Width, width)}, nil)
	return nil
}

// regionParts lists the partitions holding a region's split, merge and
// replicas.
func regionParts(app *adl.Application, r *adl.Region) []int {
	var parts []int
	for _, name := range append([]string{r.Split, r.Merge}, r.Replicas...) {
		if idx := app.PEOfOperator(name); idx >= 0 && !slices.Contains(parts, idx) {
			parts = append(parts, idx)
		}
	}
	return parts
}

// replicaState carries what state migration needs to know about one
// pre-resize replica.
type replicaState struct {
	name      string
	key       string // snapshot key (old partitioning)
	container *pe.PE
	running   bool
}

func keysOf(rs []replicaState) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.key
	}
	return out
}

// migrateRegionState re-cuts the old replicas' checkpointed state along
// the new partitioning: every old replica's snapshot section is folded
// into one scratch instance of the replica kind, and the folded state
// is split into width cuts saved under the new replicas' snapshot keys.
// Returning an error makes the caller cold-start the whole region.
func (s *SAM) migrateRegionState(oldReplicas []replicaState, newR *adl.Region, kind string, newKeys []string, width int) error {
	op, err := s.cfg.Registry.New(kind)
	if err != nil {
		return err
	}
	scratch, ok := op.(opapi.PartitionedStateOperator)
	if !ok {
		if _, stateful := op.(opapi.StatefulOperator); !stateful {
			// A stateless kind has nothing to migrate: the region cold
			// starts by construction, which is exact, not degraded.
			return nil
		}
		return fmt.Errorf("kind %s is stateful but not partition-migratable", kind)
	}

	loaded := 0
	// The re-cut snapshots inherit the oldest contributing capture
	// instant — migrated state is only as fresh as its stalest source —
	// and record "unknown" if any source predates timestamped snapshots.
	var oldest time.Time
	capturesKnown := true
	for _, or := range oldReplicas {
		data, ok, err := s.cfg.Ckpt.Load(or.key)
		if err != nil {
			return fmt.Errorf("load %s: %w", or.key, err)
		}
		if !ok {
			continue // never checkpointed: empty state
		}
		snap, err := ckpt.Parse(data)
		if err != nil {
			return fmt.Errorf("parse %s: %w", or.key, err)
		}
		folded := false
		for _, sec := range snap.Sections() {
			if sec.Name != or.name || sec.Kind != kind {
				continue
			}
			if err := mergeSection(scratch, sec, loaded == 0); err != nil {
				return fmt.Errorf("fold %s: %w", or.name, err)
			}
			loaded++
			folded = true
		}
		if folded {
			if at, ok := snap.CapturedAt(); !ok {
				capturesKnown = false
			} else if oldest.IsZero() || at.Before(oldest) {
				oldest = at
			}
		}
	}
	if loaded == 0 {
		return nil // no state anywhere: nothing to write, clean cold start
	}
	if !capturesKnown {
		oldest = time.Time{}
	}

	for p := 0; p < width; p++ {
		w := ckpt.NewWriterAt(oldest)
		err := w.Section(newR.Replicas[p], kind, func(e *ckpt.Encoder) error {
			return scratch.SplitState(e, p, width)
		})
		if err == nil {
			err = s.cfg.Ckpt.Save(newKeys[p], w.Finish())
		}
		w.Close()
		if err != nil {
			return fmt.Errorf("cut partition %d: %w", p, err)
		}
	}
	return nil
}

// mergeSection folds one snapshot section into the scratch operator,
// containing panics like the PE's restore path: a pathological payload
// must degrade to a region cold start, never crash SAM.
func mergeSection(scratch opapi.PartitionedStateOperator, sec ckpt.Section, first bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("merge panicked: %v", r)
		}
	}()
	dec := sec.Decoder()
	if first {
		err = scratch.RestoreState(dec)
	} else {
		err = scratch.MergeState(dec)
	}
	if err == nil {
		err = dec.Err()
	}
	return err
}
