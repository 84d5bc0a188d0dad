package sam

import (
	"fmt"
	"slices"

	"streamorca/internal/journal"
	"streamorca/internal/pe"
)

// deploy makes partitions of a job run, connected. It is the one routine
// behind SubmitJob (every partition, cold), RestartPE (one partition,
// restoring) and ResizeRegion (the region's partitions, restoring), and
// the one place the order matters:
//
//	build   — one container per partition, placed on its host (a
//	          surviving one of its pool when its own is down) but not
//	          started;
//	wire    — every link with an endpoint in the partitions is dropped
//	          and minted again from the ADL against the new containers;
//	release — only then are the containers started.
//
// No source runs before its job's static outlets exist, so a job loses
// nothing on its own connections at start; a tuple reaching a container
// that is wired but not yet started waits in its inbox. Import/export
// links form when the later of the two jobs deploys, and what the
// earlier one emitted before that is lost, as §2.2 allows. If any step
// fails the partitions are retired, containers and links, and the error
// returned; restore=false also drops whatever snapshot a persistent
// store still holds under the partitions' keys.
func (s *SAM) deploy(j *job, parts []int, restore bool) (err error) {
	var containers []*pe.PE
	defer func() {
		if err != nil {
			for _, c := range containers {
				s.cfg.Cluster.StopPE(c) // built, and maybe not yet the partition's container
			}
			s.retire(j, parts)
		}
	}()

	s.mu.Lock()
	cfgs, err := s.planLocked(j, parts, restore)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	for _, cfg := range cfgs {
		c, err := s.cfg.Cluster.PlacePE(cfg.Host, cfg)
		if err != nil {
			return fmt.Errorf("sam: place PE %s: %w", cfg.ID, err)
		}
		containers = append(containers, c)
	}

	if err := s.wire(j, parts, containers); err != nil {
		return err
	}

	for _, cfg := range cfgs {
		if restore || cfg.Ckpt.Store == nil {
			continue
		}
		if derr := cfg.Ckpt.Store.Delete(cfg.Ckpt.Key); derr != nil {
			s.note(journal.Event{Action: "drop-checkpoint", Job: j.id, PE: cfg.ID, Target: cfg.Ckpt.Key}, derr)
		}
	}
	for _, c := range containers {
		if err := c.Start(); err != nil {
			return err
		}
	}
	return nil
}

// planLocked is deploy's first step: it moves the partitions whose host
// is down (or not chosen yet) onto a surviving host of their pool and
// assembles each partition's container configuration.
func (s *SAM) planLocked(j *job, parts []int, restore bool) ([]pe.Config, error) {
	var assign map[int]string
	cfgs := make([]pe.Config, len(parts))
	for i, idx := range parts {
		rp := j.pes[idx]
		if rp == nil {
			return nil, permanent(fmt.Errorf("sam: job %s has no runtime PE for partition %d", j.id, idx))
		}
		if !s.cfg.Cluster.HostUp(rp.host) {
			if assign == nil {
				var err error
				assign, _, err = place(j.app, s.cfg.Cluster.Hosts(), s.reservedByOther(j.id), s.occupiedByOther(j.id))
				if err != nil {
					return nil, fmt.Errorf("sam: re-place PE %s: %w", rp.id, err)
				}
			}
			rp.host = assign[idx]
		}
		cfg, err := s.peConfig(j, rp, restore)
		if err != nil {
			return nil, permanent(err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// wire is deploy's middle step: under one hold of the lock the new
// containers become their partitions' containers, and every link
// touching the partitions is dropped and minted again against them. A
// job cancelled, or a partition resized away, since deploy began stops
// it here, before anything starts.
func (s *SAM) wire(j *job, parts []int, containers []*pe.PE) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[j.id] != j {
		return permanent(fmt.Errorf("sam: job %s is gone", j.id))
	}
	for i, idx := range parts {
		rp := j.pes[idx]
		if rp == nil {
			return permanent(fmt.Errorf("sam: job %s lost partition %d", j.id, idx))
		}
		rp.container, rp.state = containers[i], "running"
	}
	s.dropLinksLocked(j, parts)
	for _, l := range s.linksLocked(j, parts) {
		s.links[l.id] = l
		if err := s.establishLocked(l); err != nil {
			return fmt.Errorf("sam: wire %s: %w", l.id, err)
		}
	}
	return nil
}

// retire takes partitions of a job out of service: the one teardown,
// behind CancelJob, StopPE, the stop that opens a restart or a resize,
// and a failed deploy. Every link touching the partitions is dropped
// and their containers are stopped, started or not.
func (s *SAM) retire(j *job, parts []int) {
	s.mu.Lock()
	stop := s.retireLocked(j, parts)
	s.mu.Unlock()
	for _, c := range stop {
		s.cfg.Cluster.StopPE(c)
	}
}

// retireLocked is retire up to the stopping, which blocks and so is the
// caller's to do outside the lock: it returns the containers to stop.
func (s *SAM) retireLocked(j *job, parts []int) []*pe.PE {
	var stop []*pe.PE
	for _, idx := range parts {
		rp := j.pes[idx]
		if rp == nil || rp.container == nil {
			continue
		}
		if rp.state == "running" {
			rp.state = "stopping"
			if rp.container.State() == pe.Created {
				rp.state = "stopped" // never ran: no exit will report it
			}
		}
		stop = append(stop, rp.container)
	}
	s.dropLinksLocked(j, parts)
	return stop
}

// partsLocked lists every partition index of the job, in order.
func (j *job) partsLocked() []int {
	parts := make([]int, 0, len(j.pes))
	for idx := range j.pes {
		parts = append(parts, idx)
	}
	slices.Sort(parts)
	return parts
}
