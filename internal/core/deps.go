package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/vclock"
)

// This file implements §4.4: managing a set of applications with
// dependency relations inside one orchestrator — automatic submission of
// required applications (respecting uptime requirements), starvation-safe
// cancellation, and garbage collection of unused applications with
// resurrection from the cancellation queue.

// AppConfig describes one application configuration registered with the
// dependency manager (§4.4's five items).
type AppConfig struct {
	// ID is the configuration's string identifier.
	ID string
	// AppName names a registered application.
	AppName string
	// Params are submission-time application parameters.
	Params map[string]string
	// GarbageCollectable marks the application eligible for automatic
	// cancellation when unused.
	GarbageCollectable bool
	// GCTimeout is how long a garbage-collectable application keeps
	// running after becoming unused before it is cancelled; a later
	// submission that reuses it within the timeout rescues it from the
	// cancellation queue.
	GCTimeout time.Duration
}

// depEdge records that `from` depends on `to`, and that `to` must have
// been up for `uptime` before `from` may be submitted.
type depEdge struct {
	from   string
	to     string
	uptime time.Duration
}

type depManager struct {
	svc *Service

	mu          sync.Mutex
	configs     map[string]*AppConfig
	edges       []depEdge
	running     map[string]ids.JobID
	jobToConfig map[ids.JobID]string
	submittedAt map[string]time.Time
	explicit    map[string]bool
	submitting  map[string]bool
	gcTimers    map[string]vclock.Timer
}

func newDepManager(svc *Service) *depManager {
	return &depManager{
		svc:         svc,
		configs:     make(map[string]*AppConfig),
		running:     make(map[string]ids.JobID),
		jobToConfig: make(map[ids.JobID]string),
		submittedAt: make(map[string]time.Time),
		explicit:    make(map[string]bool),
		submitting:  make(map[string]bool),
		gcTimers:    make(map[string]vclock.Timer),
	}
}

// RegisterAppConfig registers an application configuration (§4.4).
func (s *Service) RegisterAppConfig(cfg AppConfig) error {
	if cfg.ID == "" {
		return fmt.Errorf("core: app config needs an id")
	}
	s.mu.Lock()
	_, appKnown := s.apps[cfg.AppName]
	s.mu.Unlock()
	if !appKnown {
		return fmt.Errorf("core: app config %q references unregistered application %q", cfg.ID, cfg.AppName)
	}
	dm := s.deps
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if _, dup := dm.configs[cfg.ID]; dup {
		return fmt.Errorf("core: app config %q already registered", cfg.ID)
	}
	cp := cfg
	dm.configs[cfg.ID] = &cp
	return nil
}

// RegisterDependency declares that configuration fromID depends on
// configuration toID, with an uptime requirement: fromID's submission is
// delayed until toID has been running for at least uptime. Registering a
// dependency that would create a cycle fails (§4.4).
func (s *Service) RegisterDependency(fromID, toID string, uptime time.Duration) error {
	dm := s.deps
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if _, ok := dm.configs[fromID]; !ok {
		return fmt.Errorf("core: unknown app config %q", fromID)
	}
	if _, ok := dm.configs[toID]; !ok {
		return fmt.Errorf("core: unknown app config %q", toID)
	}
	if fromID == toID {
		return fmt.Errorf("core: app config %q cannot depend on itself", fromID)
	}
	if uptime < 0 {
		return fmt.Errorf("core: negative uptime requirement")
	}
	if dm.reachesLocked(toID, fromID) {
		return fmt.Errorf("core: dependency %s -> %s would create a cycle", fromID, toID)
	}
	dm.edges = append(dm.edges, depEdge{from: fromID, to: toID, uptime: uptime})
	return nil
}

// reachesLocked reports whether `from` can reach `to` following
// dependency edges.
func (dm *depManager) reachesLocked(from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range dm.edges {
			if e.from != cur || seen[e.to] {
				continue
			}
			if e.to == to {
				return true
			}
			seen[e.to] = true
			stack = append(stack, e.to)
		}
	}
	return false
}

// StartApp requests the start of a configuration: the service spawns a
// submission thread that takes a snapshot of the dependency graph, prunes
// everything not connected to the target, submits all not-yet-running
// dependencies in uptime-respecting order, and finally submits the target
// (§4.4). The call blocks until the target is submitted, so policies can
// sequence follow-up actions; run it in a goroutine for fire-and-forget.
func (s *Service) StartApp(configID string) error {
	dm := s.deps
	dm.mu.Lock()
	target, ok := dm.configs[configID]
	if !ok {
		dm.mu.Unlock()
		return fmt.Errorf("core: unknown app config %q", configID)
	}
	_ = target
	// Snapshot: needed = target plus transitive dependencies.
	needed := map[string]bool{configID: true}
	stack := []string{configID}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range dm.edges {
			if e.from == cur && !needed[e.to] {
				needed[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	edges := append([]depEdge(nil), dm.edges...)
	dm.explicit[configID] = true
	// Resurrection (§4.4): any needed application sitting in the GC
	// cancellation queue is about to be reused — rescue it now so the
	// pending timeout cannot cancel a dependency out from under us.
	for id := range needed {
		if t, queued := dm.gcTimers[id]; queued {
			t.Stop()
			delete(dm.gcTimers, id)
		}
	}
	dm.mu.Unlock()

	for {
		id, wait, done, err := dm.nextSubmission(configID, needed, edges)
		if err != nil {
			s.record(journal.Event{Action: "StartApp", Target: configID}, err)
			return err
		}
		if done {
			s.record(journal.Event{Action: "StartApp", Target: configID}, nil)
			return nil
		}
		if wait > 0 {
			s.clock.Sleep(wait)
			continue
		}
		if err := dm.submitConfig(id); err != nil {
			return fmt.Errorf("core: start %s: submitting dependency %s: %w", configID, id, err)
		}
	}
}

// nextSubmission picks the next config to submit: among needed configs
// that are not running and have all dependencies satisfied, the one with
// the lowest remaining uptime wait (§4.4). done is true once the target
// itself is running.
func (dm *depManager) nextSubmission(target string, needed map[string]bool, edges []depEdge) (id string, wait time.Duration, done bool, err error) {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if _, running := dm.running[target]; running {
		return "", 0, true, nil
	}
	now := dm.svc.clock.Now()
	bestID := ""
	var bestWait time.Duration
	idsSorted := make([]string, 0, len(needed))
	for id := range needed {
		idsSorted = append(idsSorted, id)
	}
	sort.Strings(idsSorted)
	for _, id := range idsSorted {
		if _, running := dm.running[id]; running {
			continue
		}
		if dm.submitting[id] {
			continue
		}
		satisfied := true
		var need time.Duration
		for _, e := range edges {
			if e.from != id {
				continue
			}
			at, ok := dm.submittedAt[e.to]
			if !ok {
				satisfied = false
				break
			}
			if w := at.Add(e.uptime).Sub(now); w > need {
				need = w
			}
		}
		if !satisfied {
			continue
		}
		if bestID == "" || need < bestWait {
			bestID, bestWait = id, need
		}
	}
	if bestID == "" {
		return "", 0, false, fmt.Errorf("core: no submittable dependency for %s (concurrent start in progress?)", target)
	}
	if bestWait > 0 {
		return "", bestWait, false, nil
	}
	dm.submitting[bestID] = true
	return bestID, 0, false, nil
}

// submitConfig submits one configuration's application, rescuing it from
// the GC cancellation queue if it was pending there.
func (dm *depManager) submitConfig(id string) error {
	dm.mu.Lock()
	cfg := dm.configs[id]
	if t, queued := dm.gcTimers[id]; queued {
		// Resurrection: the app is still running and about to be reused —
		// drop the pending cancellation instead of restarting it (§4.4).
		t.Stop()
		delete(dm.gcTimers, id)
		delete(dm.submitting, id)
		dm.mu.Unlock()
		return nil
	}
	dm.mu.Unlock()

	job, err := dm.svc.submitInternal(cfg.AppName, cfg.Params, id)

	dm.mu.Lock()
	delete(dm.submitting, id)
	if err == nil {
		dm.running[id] = job
		dm.jobToConfig[job] = id
		dm.submittedAt[id] = dm.svc.clock.Now()
	}
	dm.mu.Unlock()
	return err
}

// StopApp requests cancellation of a configuration's job. If the target
// feeds another running application the request fails, preventing
// starvation. Otherwise the target is cancelled and every application
// that fed it (directly or transitively) becomes a garbage-collection
// candidate: GC-able, unused, not explicitly submitted apps are enqueued
// for cancellation after their GC timeout (§4.4).
func (s *Service) StopApp(configID string) error {
	dm := s.deps
	dm.mu.Lock()
	job, running := dm.running[configID]
	if !running {
		dm.mu.Unlock()
		return fmt.Errorf("core: app config %q is not running", configID)
	}
	// Starvation check: someone running depends on the target.
	for _, e := range dm.edges {
		if e.to != configID {
			continue
		}
		if _, up := dm.running[e.from]; up {
			dm.mu.Unlock()
			return fmt.Errorf("core: cannot cancel %s: running application %s depends on it", configID, e.from)
		}
	}
	dm.clearRunningLocked(configID, job)
	dm.mu.Unlock()

	err := s.cancelInternal(job, configID)
	s.record(journal.Event{Action: "StopApp", Job: job, Target: configID}, err)
	if err != nil {
		return err
	}
	dm.collectGarbageFrom(configID)
	return nil
}

// collectGarbageFrom enqueues GC-eligible feeders of the cancelled config.
func (dm *depManager) collectGarbageFrom(cancelled string) {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	for _, e := range dm.edges {
		if e.from != cancelled {
			continue
		}
		dm.maybeEnqueueGCLocked(e.to)
	}
}

func (dm *depManager) maybeEnqueueGCLocked(id string) {
	cfg, ok := dm.configs[id]
	if !ok {
		return
	}
	if _, running := dm.running[id]; !running {
		return
	}
	if _, queued := dm.gcTimers[id]; queued {
		return
	}
	if !cfg.GarbageCollectable || dm.explicit[id] {
		return
	}
	for _, e := range dm.edges {
		if e.to == id {
			if _, up := dm.running[e.from]; up {
				return // still feeding someone
			}
		}
	}
	dm.gcTimers[id] = dm.svc.clock.AfterFunc(cfg.GCTimeout, func() { dm.gcFire(id) })
}

// gcFire runs when a GC timeout elapses: it re-validates eligibility and
// cancels the application, then re-evaluates its own feeders.
func (dm *depManager) gcFire(id string) {
	dm.mu.Lock()
	delete(dm.gcTimers, id)
	job, running := dm.running[id]
	if !running {
		dm.mu.Unlock()
		return
	}
	for _, e := range dm.edges {
		if e.to == id {
			if _, up := dm.running[e.from]; up {
				dm.mu.Unlock()
				return // reused since enqueued
			}
		}
	}
	dm.clearRunningLocked(id, job)
	dm.mu.Unlock()

	if err := dm.svc.cancelInternal(job, id); err != nil {
		dm.svc.record(journal.Event{Action: "gc-cancel", Job: job, Target: id}, err)
		return
	}
	dm.collectGarbageFrom(id)
}

func (dm *depManager) clearRunningLocked(id string, job ids.JobID) {
	delete(dm.running, id)
	delete(dm.jobToConfig, job)
	delete(dm.submittedAt, id)
	delete(dm.explicit, id)
	if t, ok := dm.gcTimers[id]; ok {
		t.Stop()
		delete(dm.gcTimers, id)
	}
}

// noteJobCancelled keeps the dependency view consistent when a managed
// job is cancelled directly (outside StopApp); it returns the config id
// the job belonged to, if any.
func (dm *depManager) noteJobCancelled(job ids.JobID) string {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	id, ok := dm.jobToConfig[job]
	if !ok {
		return ""
	}
	dm.clearRunningLocked(id, job)
	return id
}

// RunningConfigs returns the currently running configurations and their
// job ids.
func (s *Service) RunningConfigs() map[string]ids.JobID {
	dm := s.deps
	dm.mu.Lock()
	defer dm.mu.Unlock()
	out := make(map[string]ids.JobID, len(dm.running))
	for id, job := range dm.running {
		out[id] = job
	}
	return out
}

// PendingGC returns the configuration ids currently queued for garbage
// collection.
func (s *Service) PendingGC() []string {
	dm := s.deps
	dm.mu.Lock()
	defer dm.mu.Unlock()
	out := make([]string, 0, len(dm.gcTimers))
	for id := range dm.gcTimers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
