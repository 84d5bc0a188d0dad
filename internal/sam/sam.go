// Package sam implements the Streams Application Manager daemon (§2.2):
// it receives application submission and cancellation requests, spawns the
// job's PEs on hosts according to placement constraints, stops and
// restarts PEs, routes import/export stream connections between running
// jobs, and — when SRM reports a PE crash — identifies the orchestrator
// managing the job and pushes the failure notification to it (§4.2).
package sam

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/ckpt"
	"streamorca/internal/cluster"
	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/pe"
	"streamorca/internal/srm"
	"streamorca/internal/vclock"
)

// Config assembles a SAM daemon.
type Config struct {
	Clock    vclock.Clock
	Cluster  *cluster.Cluster
	SRM      *srm.SRM
	Registry *opapi.Registry
	// Ckpt is the operator-state checkpoint store. nil disables
	// checkpointing: restarted PEs come back empty (the paper's §5.2
	// loss semantics). With a store, RestartPE restores every stateful
	// operator from the PE's latest snapshot.
	Ckpt ckpt.Store
	// CkptInterval is the per-PE automatic checkpoint period; 0 means
	// snapshots are taken only on demand (CheckpointPE).
	CkptInterval time.Duration
	// Retry bounds and paces RestartPE / CheckpointPE retries. The zero
	// value means a single attempt (no hidden sleeps under virtual-clock
	// tests); DefaultRetryPolicy() is the opt-in retrying policy.
	Retry RetryPolicy
}

// RetryPolicy governs how SAM retries failed actuations.
type RetryPolicy struct {
	// MaxAttempts caps total attempts, initial try included; <= 0 means 1.
	MaxAttempts int
	// BaseBackoff is the pause after the first failure; it doubles per
	// subsequent failure up to MaxBackoff. Zero values default to
	// 5ms / 250ms when MaxAttempts > 1.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the deterministic jitter source (each backoff is
	// stretched by up to 50%). A fixed seed reproduces retry timing
	// exactly, which the chaos harness depends on.
	JitterSeed int64
}

// DefaultRetryPolicy is the recommended production-shaped policy: three
// attempts with 5ms-based exponential backoff capped at 250ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
}

// permanentError marks failures retrying cannot fix (unknown PE, wrong
// state, structural config errors).
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

func permanent(err error) error { return permanentError{err: err} }

func isPermanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

// SubmitOptions parameterise one job submission.
type SubmitOptions struct {
	// Params are submission-time values substituted into operator
	// parameters: an operator parameter value "{{rate}}" becomes the
	// submission value of key "rate".
	Params map[string]string
	// Owner names the orchestrator submitting the job; empty for external
	// submissions. Failure and job events route to the owner's listener.
	Owner string
}

// RestartAbandoned prefixes the Reason of the degradation notification
// RestartPE pushes when it exhausts its retry budget: a PEFailure that
// reports an abandoned actuation, not a new crash. Consumers match it
// through core.PEFailureContext.Abandoned.
const RestartAbandoned = "restart abandoned"

// PEFailure is the notification SAM pushes to the owning orchestrator
// when a PE crashes.
type PEFailure struct {
	PE        ids.PEID
	Job       ids.JobID
	App       string
	Host      string
	Reason    string
	At        time.Time
	Operators []string
}

// JobInfo is a point-in-time description of a job.
type JobInfo struct {
	ID          ids.JobID
	App         string
	Owner       string
	SubmittedAt time.Time
	PEs         []PERuntimeInfo
}

// PERuntimeInfo describes one PE of a job.
type PERuntimeInfo struct {
	ID        ids.PEID
	Index     int
	Host      string
	State     string
	Operators []string
	Restarts  int
	// Unplaceable is set when a restart exhausted its retry budget; the
	// next explicit RestartPE gets a single attempt and clears it on
	// success.
	Unplaceable bool
}

// Listener receives SAM's callbacks for one orchestrator. They fire
// outside SAM locks; PEFailed may be nil. Job submission and
// cancellation have no callback: the orchestrator that asks for them
// raises the job events itself (§4.1).
type Listener struct {
	PEFailed func(PEFailure)
}

// SAM is the application manager daemon.
type SAM struct {
	cfg     Config
	objs    *opapi.Objects
	journal *journal.Ring

	mu        sync.Mutex
	nextJob   int64
	nextPE    int64
	jobs      map[ids.JobID]*job
	reserved  map[string]ids.JobID // exclusive host reservations
	listeners map[string]Listener
	links     map[string]*xlink
	nextLink  int64

	// retryMu guards the jitter source; separate from mu because
	// backoffs are drawn while actuations run unlocked.
	retryMu  sync.Mutex
	retryRng *rand.Rand
}

type job struct {
	id          ids.JobID
	app         *adl.Application
	owner       string
	submittedAt time.Time
	pes         map[int]*jpe
	byID        map[ids.PEID]*jpe
	reservedHst []string
}

type jpe struct {
	index       int
	id          ids.PEID
	host        string
	container   *pe.PE
	state       string // running | stopping | stopped | crashed
	restarts    int
	attempts    int // cumulative restart attempts, successes included
	unplaceable bool
}

// New builds a SAM daemon wired to the cluster and SRM; it subscribes to
// SRM's PE exit notifications (the paper's SRM→SAM failure path).
func New(cfg Config) *SAM {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.Registry == nil {
		cfg.Registry = opapi.Default
	}
	s := &SAM{
		cfg:       cfg,
		objs:      opapi.NewObjects(),
		journal:   journal.New(cfg.Clock),
		jobs:      make(map[ids.JobID]*job),
		reserved:  make(map[string]ids.JobID),
		listeners: make(map[string]Listener),
		links:     make(map[string]*xlink),
		retryRng:  rand.New(rand.NewSource(cfg.Retry.JitterSeed)),
	}
	if cfg.SRM != nil {
		cfg.SRM.OnPEExit(s.handlePEExit)
	}
	return s
}

// Objects returns the instance's out-of-band object set, which every PE
// SAM deploys hands to its operators.
func (s *SAM) Objects() *opapi.Objects { return s.objs }

// Journal returns the instance's event ring: SAM, every PE it deploys,
// the orchestrators and the chaos runner write to it.
func (s *SAM) Journal() *journal.Ring { return s.journal }

// note journals one SAM event, failed when err is non-nil.
func (s *SAM) note(e journal.Event, err error) {
	e.Source = "sam"
	if err != nil {
		e.Err = err.Error()
	}
	s.journal.Add(e)
}

// AddListener registers an orchestrator's callback set under its name.
func (s *SAM) AddListener(name string, l Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.listeners[name] = l
}

// RemoveListener drops an orchestrator's callbacks.
func (s *SAM) RemoveListener(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.listeners, name)
}

// SubmitJob instantiates an application: clones and parameterises the
// ADL, places its partitions onto hosts, and deploys them all cold —
// containers built, intra-job connections and matching import/export
// streams of already-running jobs wired, and only then started.
func (s *SAM) SubmitJob(app *adl.Application, opts SubmitOptions) (ids.JobID, error) {
	prepared := app.Clone()
	substituteParams(prepared, opts.Params)
	if err := prepared.Validate(); err != nil {
		return ids.InvalidJob, fmt.Errorf("sam: submit %s: %w", app.Name, err)
	}

	s.mu.Lock()
	s.nextJob++
	jobID := ids.JobID(s.nextJob)
	assign, reserve, err := place(prepared, s.cfg.Cluster.Hosts(), s.reservedByOther(jobID), s.occupiedByOther(jobID))
	if err != nil {
		s.nextJob--
		s.mu.Unlock()
		return ids.InvalidJob, fmt.Errorf("sam: place %s: %w", app.Name, err)
	}
	j := &job{
		id: jobID, app: prepared, owner: opts.Owner,
		submittedAt: s.cfg.Clock.Now(),
		pes:         make(map[int]*jpe, len(prepared.PEs)),
		byID:        make(map[ids.PEID]*jpe, len(prepared.PEs)),
		reservedHst: reserve,
	}
	for _, hostName := range reserve {
		s.reserved[hostName] = jobID
	}
	for _, part := range prepared.PEs {
		s.nextPE++
		rp := &jpe{index: part.Index, id: ids.PEID(s.nextPE), host: assign[part.Index], state: "stopped"}
		j.pes[part.Index] = rp
		j.byID[rp.id] = rp
	}
	s.jobs[jobID] = j
	parts := j.partsLocked()
	s.mu.Unlock()

	if err := s.deploy(j, parts, false); err != nil {
		_ = s.CancelJob(jobID) //orcalint:ignore actuationcheck deploy already rolled the containers back, this only forgets the job; the deploy error is what the caller sees
		return ids.InvalidJob, fmt.Errorf("sam: submit %s: %w", app.Name, err)
	}
	s.note(journal.Event{Action: "submitted", Job: jobID, Target: app.Name}, nil)
	return jobID, nil
}

// CancelJob stops a job's PEs, removes its stream links, and releases its
// exclusive host reservations.
func (s *SAM) CancelJob(id ids.JobID) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("sam: no job %s", id)
	}
	stop := s.retireLocked(j, j.partsLocked())
	delete(s.jobs, id)
	for _, h := range j.reservedHst {
		delete(s.reserved, h)
	}
	var ckptKeys []string
	if s.cfg.Ckpt != nil {
		for _, rp := range j.pes {
			ckptKeys = append(ckptKeys, ckptKey(j.id, rp.id))
		}
	}
	s.mu.Unlock()

	for _, c := range stop {
		s.cfg.Cluster.StopPE(c)
	}
	// A cancelled job never restarts, so its snapshots are garbage.
	for _, k := range ckptKeys {
		if err := s.cfg.Ckpt.Delete(k); err != nil {
			s.note(journal.Event{Action: "drop-checkpoint", Job: id, Target: k}, err)
		}
	}
	if s.cfg.SRM != nil {
		s.cfg.SRM.DropJob(id)
	}
	s.note(journal.Event{Action: "cancelled", Job: id, Target: j.app.Name}, nil)
	return nil
}

// RestartPE restarts a PE (crashed, stopped, or running) with a fresh
// container on the same host when possible, re-wiring every stream link
// that touches it. The PE keeps its id, as in System S. When SAM has a
// checkpoint store, the fresh container restores every stateful
// operator from the PE's latest snapshot before processing resumes, so
// a restart no longer implies empty windows and zeroed counters.
//
// Transient failures (host gone mid-placement, store hiccups) are
// retried under Config.Retry with exponential backoff and deterministic
// jitter, each attempt journalled. Exhausting the budget marks the PE
// unplaceable and pushes a degradation notification — a PEFailure with
// a RestartAbandoned reason — to the owning orchestrator, which can
// react (revive a host, reset a store) and try again: an unplaceable PE
// gets single attempts until one succeeds and clears the mark.
func (s *SAM) RestartPE(id ids.PEID) error {
	max := s.cfg.Retry.MaxAttempts
	s.mu.Lock()
	if _, rp := s.findPELocked(id); rp != nil && rp.unplaceable {
		max = 1 // already escalated: no repeated backoff storms
	}
	s.mu.Unlock()
	attempts, err := s.retry("restart", id, max, s.restartPEOnce)
	s.settleRestart(id, attempts, err)
	return err
}

// retry runs one actuation on a PE under Config.Retry: up to max
// attempts (at least one), stopping at success or a permanent error,
// each attempt journalled under action together with the backoff slept
// after it. It returns the attempts made and the last error.
func (s *SAM) retry(action string, id ids.PEID, max int, once func(ids.PEID) error) (attempts int, err error) {
	for attempts = 1; ; attempts++ {
		err = once(id)
		final := err == nil || isPermanent(err) || attempts >= max
		var backoff time.Duration
		if !final {
			backoff = s.retryBackoff(s.cfg.Retry, attempts)
		}
		s.note(journal.Event{Action: action, PE: id, Attempt: attempts, Backoff: backoff}, err)
		if final {
			return attempts, err
		}
		s.cfg.Clock.Sleep(backoff)
	}
}

// settleRestart applies the outcome of a restart actuation: success
// clears the unplaceable mark, updates the attempt gauge and journals
// the restart; exhausting
// the retry budget on a transient failure marks the PE unplaceable and
// notifies the owning orchestrator once.
func (s *SAM) settleRestart(id ids.PEID, attempts int, err error) {
	s.mu.Lock()
	j, rp := s.findPELocked(id)
	if rp == nil {
		s.mu.Unlock()
		return
	}
	rp.attempts += attempts
	if err == nil {
		rp.unplaceable = false
		if rp.container != nil {
			rp.container.PEMetrics().Counter(metrics.PERestartAttempts).Set(int64(rp.attempts))
		}
		host := rp.host
		s.mu.Unlock()
		s.note(journal.Event{Action: "restarted", Job: j.id, PE: id, Target: host}, nil)
		return
	}
	if isPermanent(err) || rp.unplaceable {
		s.mu.Unlock()
		return
	}
	rp.unplaceable = true
	listener := s.listeners[j.owner]
	failure := PEFailure{
		PE: id, Job: j.id, App: j.app.Name, Host: rp.host,
		Reason:    fmt.Sprintf("%s after %d attempts: %v", RestartAbandoned, attempts, err),
		At:        s.cfg.Clock.Now(),
		Operators: append([]string(nil), j.app.OperatorsInPE(rp.index)...),
	}
	s.mu.Unlock()
	s.note(journal.Event{Action: "unplaceable", Job: j.id, PE: id, Note: failure.Reason}, nil)
	if listener.PEFailed != nil {
		listener.PEFailed(failure)
	}
}

// retryBackoff computes the pause before the next attempt: exponential
// from BaseBackoff, capped at MaxBackoff, stretched by up to 50% of
// deterministic seeded jitter.
func (s *SAM) retryBackoff(pol RetryPolicy, attempt int) time.Duration {
	base := pol.BaseBackoff
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	cap := pol.MaxBackoff
	if cap <= 0 {
		cap = 250 * time.Millisecond
	}
	d := base << (attempt - 1)
	if d > cap || d <= 0 {
		d = cap
	}
	s.retryMu.Lock()
	jitter := time.Duration(s.retryRng.Int63n(int64(d)/2 + 1))
	s.retryMu.Unlock()
	return d + jitter
}

// restartPEOnce is one restart attempt: retire the PE's container and
// links, then deploy its partition again, restoring state.
func (s *SAM) restartPEOnce(id ids.PEID) error {
	s.mu.Lock()
	j, rp := s.findPELocked(id)
	s.mu.Unlock()
	if rp == nil {
		return permanent(fmt.Errorf("sam: no PE %s", id))
	}
	parts := []int{rp.index}
	s.retire(j, parts)
	if err := s.deploy(j, parts, true); err != nil {
		return fmt.Errorf("sam: restart PE %s: %w", id, err)
	}
	s.mu.Lock()
	rp.restarts++
	rp.container.PEMetrics().Counter(metrics.PERestarts).Set(int64(rp.restarts))
	s.mu.Unlock()
	return nil
}

// CheckpointPE captures an on-demand state snapshot of a running PE
// (the orchestrator actuation backing checkpoint-before-risky-change
// policies; periodic snapshots ride Config.CkptInterval instead).
// Transient store failures are retried under Config.Retry with the same
// journalled backoff as RestartPE.
func (s *SAM) CheckpointPE(id ids.PEID) error {
	_, err := s.retry("checkpoint", id, s.cfg.Retry.MaxAttempts, s.checkpointPEOnce)
	return err
}

// checkpointPEOnce is one checkpoint attempt.
func (s *SAM) checkpointPEOnce(id ids.PEID) error {
	s.mu.Lock()
	_, rp := s.findPELocked(id)
	if rp == nil {
		s.mu.Unlock()
		return permanent(fmt.Errorf("sam: no PE %s", id))
	}
	if rp.state != "running" || rp.container == nil {
		s.mu.Unlock()
		return permanent(fmt.Errorf("sam: PE %s is not running", id))
	}
	c := rp.container
	s.mu.Unlock()
	if _, err := c.Checkpoint(); err != nil {
		return fmt.Errorf("sam: checkpoint PE %s: %w", id, err)
	}
	return nil
}

// StopPE cleanly stops one PE without restarting it.
func (s *SAM) StopPE(id ids.PEID) error {
	s.mu.Lock()
	j, rp := s.findPELocked(id)
	if rp == nil {
		s.mu.Unlock()
		return fmt.Errorf("sam: no PE %s", id)
	}
	if rp.state != "running" || rp.container == nil {
		s.mu.Unlock()
		return fmt.Errorf("sam: PE %s is not running", id)
	}
	s.mu.Unlock()
	s.retire(j, []int{rp.index})
	return nil
}

// KillPE injects a crash failure (fault injection / tests).
func (s *SAM) KillPE(id ids.PEID, reason string) error {
	return s.cfg.Cluster.KillPE(id, reason)
}

// ControlOperator delivers a control command to an operator of a running
// job (the orchestrator actuation that adjusts operator behaviour without
// redeployment, §3).
func (s *SAM) ControlOperator(jobID ids.JobID, opName, cmd string, args map[string]string) error {
	s.mu.Lock()
	j, ok := s.jobs[jobID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("sam: no job %s", jobID)
	}
	idx := j.app.PEOfOperator(opName)
	if idx < 0 {
		s.mu.Unlock()
		return fmt.Errorf("sam: job %s has no operator %q", jobID, opName)
	}
	rp := j.pes[idx]
	if rp == nil || rp.container == nil || rp.state != "running" {
		s.mu.Unlock()
		return fmt.Errorf("sam: PE hosting %q is not running", opName)
	}
	c := rp.container
	s.mu.Unlock()
	return c.Control(opName, cmd, args)
}

// Job returns a snapshot of one job.
func (s *SAM) Job(id ids.JobID) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return s.jobInfoLocked(j), true
}

// Jobs returns snapshots of all running jobs, ordered by id.
func (s *SAM) Jobs() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.jobInfoLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// JobADL returns the (parameterised) ADL a job runs, for graph building.
func (s *SAM) JobADL(id ids.JobID) (*adl.Application, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.app, true
}

// PEPlacement returns partition-index → PE id and host maps for a job.
func (s *SAM) PEPlacement(id ids.JobID) (map[int]ids.PEID, map[int]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, false
	}
	peIDs := make(map[int]ids.PEID, len(j.pes))
	hosts := make(map[int]string, len(j.pes))
	for idx, rp := range j.pes {
		peIDs[idx] = rp.id
		hosts[idx] = rp.host
	}
	return peIDs, hosts, true
}

// handlePEExit is SAM's subscription to SRM's failure notifications.
func (s *SAM) handlePEExit(e srm.PEExit) {
	s.mu.Lock()
	j, rp := s.findPELocked(e.PE)
	if rp == nil {
		s.mu.Unlock()
		return
	}
	if rp.state == "stopping" {
		rp.state = "stopped"
		s.mu.Unlock()
		return
	}
	if !e.Crashed {
		rp.state = "stopped"
		s.mu.Unlock()
		return
	}
	rp.state = "crashed"
	s.note(journal.Event{Action: "crashed", Job: j.id, PE: e.PE, Target: e.Host, Note: e.Reason}, nil)
	autoRestart := false
	for _, part := range j.app.PEs {
		if part.Index == rp.index {
			autoRestart = part.Restart
		}
	}
	listener := s.listeners[j.owner]
	failure := PEFailure{
		PE: e.PE, Job: j.id, App: j.app.Name, Host: e.Host,
		Reason: e.Reason, At: e.At,
		Operators: append([]string(nil), j.app.OperatorsInPE(rp.index)...),
	}
	s.mu.Unlock()

	if autoRestart {
		_ = s.RestartPE(e.PE) //orcalint:ignore actuationcheck every attempt, and giving up, is journalled
	}
	if listener.PEFailed != nil {
		listener.PEFailed(failure)
	}
}

// peConfig assembles the container configuration for one partition;
// restore arms the container to adopt the PE's latest snapshot.
func (s *SAM) peConfig(j *job, rp *jpe, restore bool) (pe.Config, error) {
	var part *adl.PE
	for i := range j.app.PEs {
		if j.app.PEs[i].Index == rp.index {
			part = &j.app.PEs[i]
		}
	}
	if part == nil {
		return pe.Config{}, fmt.Errorf("sam: job %s has no partition %d", j.id, rp.index)
	}
	inPart := make(map[string]bool, len(part.Operators))
	cfg := pe.Config{
		ID: rp.id, Job: j.id, App: j.app.Name, Host: rp.host,
		Clock: s.cfg.Clock, Registry: s.cfg.Registry, Objects: s.objs, Journal: s.journal,
	}
	for _, name := range part.Operators {
		inPart[name] = true
		src := j.app.OperatorByName(name)
		spec := pe.OpSpec{Name: src.Name, Kind: src.Kind, Params: opapi.Params(src.Params)}
		for _, p := range src.Inputs {
			sc, err := p.SchemaOf()
			if err != nil {
				return pe.Config{}, err
			}
			spec.Inputs = append(spec.Inputs, sc)
		}
		for _, p := range src.Outputs {
			sc, err := p.SchemaOf()
			if err != nil {
				return pe.Config{}, err
			}
			spec.Outputs = append(spec.Outputs, sc)
		}
		cfg.Ops = append(cfg.Ops, spec)
	}
	for _, c := range j.app.Connects {
		if inPart[c.FromOp] && inPart[c.ToOp] {
			cfg.Wires = append(cfg.Wires, pe.Wire{FromOp: c.FromOp, FromPort: c.FromPort, ToOp: c.ToOp, ToPort: c.ToPort})
		}
	}
	if s.cfg.Ckpt != nil {
		cfg.Ckpt = pe.CkptConfig{
			Store:    s.cfg.Ckpt,
			Key:      ckptKey(j.id, rp.id),
			Interval: s.cfg.CkptInterval,
			Restore:  restore,
		}
	}
	return cfg, nil
}

// ckptKey names a PE's snapshot. Both ids survive restarts and are
// unique for the lifetime of a platform instance, so a restarted PE
// finds exactly its own state.
func ckptKey(job ids.JobID, pe ids.PEID) string {
	return fmt.Sprintf("%s/%s", job, pe)
}

func (s *SAM) findPELocked(id ids.PEID) (*job, *jpe) {
	for _, j := range s.jobs {
		if rp, ok := j.byID[id]; ok {
			return j, rp
		}
	}
	return nil, nil
}

func (s *SAM) jobInfoLocked(j *job) JobInfo {
	info := JobInfo{ID: j.id, App: j.app.Name, Owner: j.owner, SubmittedAt: j.submittedAt}
	for _, rp := range j.pes {
		info.PEs = append(info.PEs, PERuntimeInfo{
			ID: rp.id, Index: rp.index, Host: rp.host, State: rp.state,
			Operators:   append([]string(nil), j.app.OperatorsInPE(rp.index)...),
			Restarts:    rp.restarts,
			Unplaceable: rp.unplaceable,
		})
	}
	sort.Slice(info.PEs, func(a, b int) bool { return info.PEs[a].Index < info.PEs[b].Index })
	return info
}

// reservedByOther lists hosts exclusively reserved by jobs other than self.
func (s *SAM) reservedByOther(self ids.JobID) map[string]bool {
	out := make(map[string]bool, len(s.reserved))
	for h, owner := range s.reserved {
		if owner != self {
			out[h] = true
		}
	}
	return out
}

// occupiedByOther lists hosts where jobs other than self have PEs.
func (s *SAM) occupiedByOther(self ids.JobID) map[string]bool {
	out := make(map[string]bool)
	for _, j := range s.jobs {
		if j.id == self {
			continue
		}
		for _, rp := range j.pes {
			out[rp.host] = true
		}
	}
	return out
}

// substituteParams applies submission-time values to "{{key}}" references
// in operator parameter values.
func substituteParams(app *adl.Application, params map[string]string) {
	if len(params) == 0 {
		return
	}
	for i := range app.Operators {
		for k, v := range app.Operators[i].Params {
			if !strings.Contains(v, "{{") {
				continue
			}
			for pk, pv := range params {
				v = strings.ReplaceAll(v, "{{"+pk+"}}", pv)
			}
			app.Operators[i].Params[k] = v
		}
	}
}
