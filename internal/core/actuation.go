package core

import (
	"fmt"
	"sort"

	"streamorca/internal/adl"
	"streamorca/internal/compiler"
	"streamorca/internal/graph"
	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/sam"
)

// This file implements the actuation and inspection APIs the ORCA logic
// invokes from its event handlers (§3, §4.2, §4.3). The service acts as a
// proxy for job submission and control commands; it refuses to act on
// jobs it did not start (ErrUnmanagedJob).

// SubmitApplication submits a registered application directly (outside
// the dependency manager), returning the new job id. A job-submitted
// event is delivered if a matching JobEventScope is registered.
func (s *Service) SubmitApplication(appName string, params map[string]string) (ids.JobID, error) {
	return s.submitInternal(appName, params, "")
}

func (s *Service) submitInternal(appName string, params map[string]string, configID string) (ids.JobID, error) {
	s.mu.Lock()
	app, ok := s.apps[appName]
	s.mu.Unlock()
	if !ok {
		return ids.InvalidJob, fmt.Errorf("core: application %q is not registered with orchestrator %q", appName, s.cfg.Name)
	}
	job, err := s.cfg.SAM.SubmitJob(app, sam.SubmitOptions{Params: params, Owner: s.cfg.Name})
	s.record(journal.Event{Action: "SubmitApplication", Job: job, Target: appName}, err)
	if err != nil {
		return ids.InvalidJob, err
	}
	g, err := s.buildGraph(job)
	if err != nil {
		_ = s.cfg.SAM.CancelJob(job) //orcalint:ignore actuationcheck best-effort rollback; the graph-build error below is the one the caller acts on
		return ids.InvalidJob, fmt.Errorf("core: graph for %s: %w", appName, err)
	}
	s.mu.Lock()
	s.graphs[job] = g
	s.mu.Unlock()
	s.enqueue(&eventData{
		kind: KindJobSubmitted, job: job, app: appName,
		ctx: &JobContext{Job: job, App: appName, ConfigID: configID, At: s.clock.Now()},
	})
	return job, nil
}

// CancelJob cancels a managed job. Cancelling a job the orchestrator did
// not start returns ErrUnmanagedJob.
func (s *Service) CancelJob(job ids.JobID) error {
	return s.cancelInternal(job, "")
}

func (s *Service) cancelInternal(job ids.JobID, configID string) error {
	s.mu.Lock()
	g, ok := s.graphs[job]
	s.mu.Unlock()
	if !ok {
		s.record(journal.Event{Action: "CancelJob", Job: job}, ErrUnmanagedJob)
		return ErrUnmanagedJob
	}
	appName := g.App()
	err := s.cfg.SAM.CancelJob(job)
	s.record(journal.Event{Action: "CancelJob", Job: job, Target: appName}, err)
	if err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.graphs, job)
	s.mu.Unlock()
	if configID == "" {
		// A direct cancellation may still concern a dependency-managed
		// job; keep the dependency manager's view consistent.
		configID = s.deps.noteJobCancelled(job)
	}
	s.enqueue(&eventData{
		kind: KindJobCancelled, job: job, app: appName,
		ctx: &JobContext{Job: job, App: appName, ConfigID: configID, Cancelled: true, At: s.clock.Now()},
	})
	return nil
}

// RestartPE restarts a PE of a managed job (the failover actuation of
// §5.2).
func (s *Service) RestartPE(pe ids.PEID) error {
	if s.graphOfPE(pe) == nil {
		s.record(journal.Event{Action: "RestartPE", PE: pe}, ErrUnmanagedJob)
		return ErrUnmanagedJob
	}
	err := s.cfg.SAM.RestartPE(pe)
	s.record(journal.Event{Action: "RestartPE", PE: pe}, err)
	return err
}

// CheckpointPE captures an on-demand state snapshot of a managed PE.
// Paired with RestartPE it gives policies a stateful restart: snapshot,
// restart, and the PE resumes with its aggregate windows and counters
// intact instead of rebuilding them from fresh traffic. It fails when
// the platform runs without a checkpoint store.
func (s *Service) CheckpointPE(pe ids.PEID) error {
	if s.graphOfPE(pe) == nil {
		s.record(journal.Event{Action: "CheckpointPE", PE: pe}, ErrUnmanagedJob)
		return ErrUnmanagedJob
	}
	err := s.cfg.SAM.CheckpointPE(pe)
	s.record(journal.Event{Action: "CheckpointPE", PE: pe}, err)
	return err
}

// StopPE stops a PE of a managed job without restarting it.
func (s *Service) StopPE(pe ids.PEID) error {
	if s.graphOfPE(pe) == nil {
		s.record(journal.Event{Action: "StopPE", PE: pe}, ErrUnmanagedJob)
		return ErrUnmanagedJob
	}
	err := s.cfg.SAM.StopPE(pe)
	s.record(journal.Event{Action: "StopPE", PE: pe}, err)
	return err
}

// KillPE injects a crash into a managed job's PE (fault injection for
// tests and experiments).
func (s *Service) KillPE(pe ids.PEID, reason string) error {
	if s.graphOfPE(pe) == nil {
		s.record(journal.Event{Action: "KillPE", PE: pe}, ErrUnmanagedJob)
		return ErrUnmanagedJob
	}
	err := s.cfg.SAM.KillPE(pe, reason)
	s.record(journal.Event{Action: "KillPE", PE: pe}, err)
	return err
}

// ResizeRegion changes the width of a managed job's key-partitioned
// parallel region — the elastic-fission actuation. SAM recompiles the
// job's ADL, migrates the replicas' per-key state between
// partitionings through the checkpoint store, and restarts the region
// at the new width. The job's stream graph is then rebuilt so inspection
// reflects the new topology — also after an error, since a resize whose
// deploy failed has still swapped in the resized ADL. Like every
// actuation, the call is journalled under the current event's
// transaction id.
func (s *Service) ResizeRegion(job ids.JobID, region string, width int) error {
	ev := journal.Event{Action: "ResizeRegion", Job: job, Target: region, Note: fmt.Sprintf("width %d", width)}
	if !s.manages(job) {
		s.record(ev, ErrUnmanagedJob)
		return ErrUnmanagedJob
	}
	err := s.cfg.SAM.ResizeRegion(job, region, width)
	s.record(ev, err)
	g, gerr := s.buildGraph(job)
	if gerr != nil {
		s.record(journal.Event{Action: "rebuild-graph", Job: job}, gerr)
		return err
	}
	s.mu.Lock()
	if _, ok := s.graphs[job]; ok { // not cancelled meanwhile
		s.graphs[job] = g
	}
	s.mu.Unlock()
	return err
}

// RegionWidth reports the current width of a managed job's parallel
// region, for routines that track how far they have scaled.
func (s *Service) RegionWidth(job ids.JobID, region string) (int, bool) {
	if !s.manages(job) {
		return 0, false
	}
	app, ok := s.cfg.SAM.JobADL(job)
	if !ok {
		return 0, false
	}
	r := app.Region(region)
	if r == nil {
		return 0, false
	}
	return r.Width, true
}

// ControlOperator sends a control command to an operator of a managed
// job.
func (s *Service) ControlOperator(job ids.JobID, opName, cmd string, args map[string]string) error {
	if !s.manages(job) {
		s.record(journal.Event{Action: "ControlOperator", Job: job, Target: opName}, ErrUnmanagedJob)
		return ErrUnmanagedJob
	}
	err := s.cfg.SAM.ControlOperator(job, opName, cmd, args)
	s.record(journal.Event{Action: "ControlOperator", Job: job, Target: opName}, err)
	return err
}

// MakeExclusiveHostPools rewrites the registered application's host pools
// to exclusive, so its future submissions run on hosts no other
// application can use (§4.3). It must be called before submission; jobs
// already running are unaffected.
func (s *Service) MakeExclusiveHostPools(appName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	app, ok := s.apps[appName]
	if !ok {
		err := fmt.Errorf("core: application %q is not registered", appName)
		s.record(journal.Event{Action: "MakeExclusiveHostPools", Target: appName}, err)
		return err
	}
	app.MakeExclusive()
	s.record(journal.Event{Action: "MakeExclusiveHostPools", Target: appName}, nil)
	return nil
}

// RepartitionApplication recompiles the registered application's PE
// partitioning with the given fusion options — the §4.3 extension the
// paper describes (annotate and recompile) but does not implement. Like
// MakeExclusiveHostPools, it rewrites the registered artifact and only
// affects future submissions.
func (s *Service) RepartitionApplication(appName string, opts compiler.Options) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	app, ok := s.apps[appName]
	if !ok {
		err := fmt.Errorf("core: application %q is not registered", appName)
		s.record(journal.Event{Action: "RepartitionApplication", Target: appName}, err)
		return err
	}
	rewritten, err := compiler.Repartition(app, opts)
	s.record(journal.Event{Action: "RepartitionApplication", Target: appName}, err)
	if err != nil {
		return err
	}
	s.apps[appName] = rewritten
	return nil
}

// RegisteredApplication returns a copy of the registered (possibly
// rewritten) ADL.
func (s *Service) RegisteredApplication(appName string) (*adl.Application, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	app, ok := s.apps[appName]
	if !ok {
		return nil, false
	}
	return app.Clone(), true
}

// Graph returns the stream graph representation of a managed job (§4.2's
// inspection entry point).
func (s *Service) Graph(job ids.JobID) (*graph.Graph, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.graphs[job]
	return g, ok
}

// ManagedJobs lists the jobs this orchestrator started, ordered by id.
func (s *Service) ManagedJobs() []JobSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobSummary, 0, len(s.graphs))
	for job, g := range s.graphs {
		out = append(out, JobSummary{Job: job, App: g.App()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// JobsOfApp lists the managed jobs running a given application (replicas
// of the same application are distinct jobs, §5.2).
func (s *Service) JobsOfApp(appName string) []ids.JobID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ids.JobID
	for job, g := range s.graphs {
		if g.App() == appName {
			out = append(out, job)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OperatorsInPE answers "which stream operators reside in PE x?" across
// all managed jobs (§4.2).
func (s *Service) OperatorsInPE(pe ids.PEID) []graph.OperatorInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.graphs {
		if ops := g.OperatorsInPE(pe); ops != nil {
			return ops
		}
	}
	return nil
}

// CompositesInPE answers "which composites reside in PE x?".
func (s *Service) CompositesInPE(pe ids.PEID) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.graphs {
		if comps := g.CompositesInPE(pe); comps != nil {
			return comps
		}
	}
	return nil
}

// EnclosingComposite answers "what is the enclosing composite operator
// instance name for operator y?" within a managed job.
func (s *Service) EnclosingComposite(job ids.JobID, opName string) (string, bool) {
	s.mu.Lock()
	g, ok := s.graphs[job]
	s.mu.Unlock()
	if !ok {
		return "", false
	}
	return g.EnclosingComposite(opName)
}

// PEOfOperator answers "what is the PE id for operator instance y?".
func (s *Service) PEOfOperator(job ids.JobID, opName string) (ids.PEID, bool) {
	s.mu.Lock()
	g, ok := s.graphs[job]
	s.mu.Unlock()
	if !ok {
		return ids.InvalidPE, false
	}
	return g.PEOfOperator(opName)
}

// HostOfPE returns the host a managed PE runs on.
func (s *Service) HostOfPE(pe ids.PEID) (string, bool) {
	if g := s.graphOfPE(pe); g != nil {
		return g.HostOfPE(pe)
	}
	return "", false
}

// manages reports whether the service started the job.
func (s *Service) manages(job ids.JobID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.graphs[job]
	return ok
}

// graphOfPE returns the stream graph of the managed job the PE belongs
// to, or nil. It reads graph structure only: s.mu is never held across
// a call into SAM.
func (s *Service) graphOfPE(pe ids.PEID) *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.graphs {
		if g.OperatorsInPE(pe) != nil {
			return g
		}
	}
	return nil
}

// buildGraph builds a job's stream graph from the ADL and PE ids SAM runs
// it with. PE hosts and states stay SAM's: the graph reads them from the
// job's current SAM record on each query.
func (s *Service) buildGraph(job ids.JobID) (*graph.Graph, error) {
	app, ok1 := s.cfg.SAM.JobADL(job)
	peIDs, _, ok2 := s.cfg.SAM.PEPlacement(job)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("core: job %s is gone from SAM", job)
	}
	return graph.Build(app, job, peIDs, func(pe ids.PEID) (host, state string) {
		info, _ := s.cfg.SAM.Job(job)
		for _, p := range info.PEs {
			if p.ID == pe {
				return p.Host, p.State
			}
		}
		return "", ""
	})
}
