package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/cluster"
	"streamorca/internal/graph"
	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/metrics"
	"streamorca/internal/sam"
	"streamorca/internal/srm"
	"streamorca/internal/vclock"
)

// DefaultPullInterval is the ORCA service's metric pull period against
// SRM (paper default: 15 seconds, §4.2).
const DefaultPullInterval = 15 * time.Second

// ErrUnmanagedJob is returned when the ORCA logic attempts to act on a job
// the service did not start (§3).
var ErrUnmanagedJob = errors.New("core: this orchestrator does not manage the job")

// Config assembles an ORCA service.
type Config struct {
	// Name identifies the orchestrator to the platform (SAM tracks
	// orchestrators as manageable entities, §3).
	Name string
	// SAM and SRM are the platform daemons the service proxies.
	SAM *sam.SAM
	SRM *srm.SRM
	// Clock drives pull intervals, timers, uptime requirements, and GC
	// timeouts; nil means the wall clock.
	Clock vclock.Clock
	// PullInterval overrides DefaultPullInterval.
	PullInterval time.Duration
}

// Stats exposes service counters for monitoring and the experiments.
type Stats struct {
	QueueDepth     int
	Delivered      uint64
	MatchedEvents  uint64
	DroppedEvents  uint64 // events matching no subscope
	HandlerPanics  uint64
	HandlerErrors  uint64 // routine handlers returning a non-ErrSkipped error
	MetricEpoch    uint64
	FailureEpoch   uint64
	ManagedJobs    int
	RegisteredApps int
}

// JobSummary identifies one job the service manages.
type JobSummary struct {
	Job ids.JobID
	App string
}

// Service is the ORCA service: the runtime half of an orchestrator. It
// runs a set of composable Routines (NewRoutineService) under the scope
// matcher and the single-threaded delivery discipline.
type Service struct {
	cfg      Config
	routines []Routine
	actions  *Actions
	clock    vclock.Clock

	mu        sync.Mutex
	apps      map[string]*adl.Application // registered, by name
	subs      []*Subscription             // event subscriptions, in registration order
	startSubs []*Subscription
	graphs    map[ids.JobID]*graph.Graph // one per job the service manages
	timers    map[string]vclock.Timer

	metricEpoch  uint64
	failEpochs   map[string]uint64
	nextFailure  uint64
	pullInterval atomic.Int64
	pullReset    chan struct{} // wakes pullLoop to re-arm with a new interval

	queue     *eventQueue
	stopCh    chan struct{}
	closeOnce sync.Once
	done      sync.WaitGroup
	started   atomic.Bool
	startSeen atomic.Bool // OrcaStart handled; metric pulls gate on this

	// stopHooks are routine teardown callbacks (SetupContext.OnStop and
	// Closer routines); Stop runs them once, in reverse registration
	// order, before event delivery shuts down.
	stopHooks []func(*Actions)
	stopOnce  sync.Once

	delivered   uint64
	matched     uint64
	dropped     uint64
	panics      uint64
	handlerErrs uint64

	nextTx    atomic.Uint64
	currentTx atomic.Uint64

	deps *depManager
}

// NewRoutineService builds a service running the given adaptation
// routines. Their Setups run inside Start, in argument order; the first
// error aborts the start and is returned from Start.
func NewRoutineService(cfg Config, routines ...Routine) (*Service, error) {
	if len(routines) == 0 {
		return nil, fmt.Errorf("core: orchestrator %q has no routines", cfg.Name)
	}
	for i, r := range routines {
		if r == nil {
			return nil, fmt.Errorf("core: orchestrator %q: routine %d is nil", cfg.Name, i)
		}
		if r.Name() == "" {
			return nil, fmt.Errorf("core: orchestrator %q: routine %d has no name", cfg.Name, i)
		}
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: orchestrator needs a name")
	}
	if cfg.SAM == nil || cfg.SRM == nil {
		return nil, fmt.Errorf("core: orchestrator %q needs SAM and SRM", cfg.Name)
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.PullInterval <= 0 {
		cfg.PullInterval = DefaultPullInterval
	}
	s := &Service{
		cfg:        cfg,
		routines:   routines,
		clock:      cfg.Clock,
		apps:       make(map[string]*adl.Application),
		graphs:     make(map[ids.JobID]*graph.Graph),
		timers:     make(map[string]vclock.Timer),
		failEpochs: make(map[string]uint64),
		queue:      newEventQueue(),
		stopCh:     make(chan struct{}),
		pullReset:  make(chan struct{}, 1),
	}
	s.actions = &Actions{Service: s}
	s.pullInterval.Store(int64(cfg.PullInterval))
	s.deps = newDepManager(s)
	return s, nil
}

// Clock returns the service clock (useful to ORCA logic for timestamps).
func (s *Service) Clock() vclock.Clock { return s.clock }

// RegisterApplication makes an application controllable from this
// orchestrator — the Go equivalent of listing an ADL path in the
// orchestrator's description file (§3).
func (s *Service) RegisterApplication(app *adl.Application) error {
	if err := app.Validate(); err != nil {
		return fmt.Errorf("core: register %q: %w", app.Name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.apps[app.Name]; dup {
		return fmt.Errorf("core: application %q already registered", app.Name)
	}
	s.apps[app.Name] = app.Clone()
	return nil
}

// Start launches the service: it registers with SAM as the owner of its
// jobs, subscribes to host failures, runs every routine's Setup, starts
// the dispatch and metric-pull goroutines, and delivers the start
// notification (§3). A Setup error aborts the start and is returned;
// the service is then stopped (jobs a partial setup already submitted
// keep running — cancel them or close the platform as the policy
// requires).
func (s *Service) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("core: orchestrator %q started twice", s.cfg.Name)
	}
	s.cfg.SAM.AddListener(s.cfg.Name, sam.Listener{PEFailed: s.onPEFailure})
	s.cfg.SRM.OnHostDown(s.onHostDown)
	for _, r := range s.routines {
		if err := r.Setup(&SetupContext{svc: s, routine: r.Name()}); err != nil {
			s.abortStart()
			return fmt.Errorf("core: orchestrator %q: routine %q setup: %w", s.cfg.Name, r.Name(), err)
		}
		if cl, ok := r.(Closer); ok {
			s.mu.Lock()
			s.stopHooks = append(s.stopHooks, cl.Close)
			s.mu.Unlock()
		}
	}
	s.queue.push(&delivered{data: &eventData{
		kind: KindOrcaStart,
		ctx:  &OrcaStartContext{Name: s.cfg.Name, At: s.clock.Now()},
	}})
	s.done.Add(2)
	go s.dispatchLoop()
	go s.pullLoop()
	return nil
}

// abortStart unwinds a failed Start before the delivery goroutines
// exist: subsequent Stop calls become no-ops and late event pushes are
// dropped by the closed queue. Stop hooks do not run — the routines
// never finished setting up.
func (s *Service) abortStart() {
	s.stopOnce.Do(func() {}) // mark hooks as spent
	s.closeOnce.Do(func() { close(s.stopCh) })
	s.queue.close()
	s.mu.Lock()
	for name, t := range s.timers {
		t.Stop()
		delete(s.timers, name)
	}
	s.mu.Unlock()
	s.cfg.SAM.RemoveListener(s.cfg.Name)
}

// Stop shuts down event delivery and timers, running every registered
// teardown hook (SetupContext.OnStop, Closer routines) first, while the
// actuation surface still works. Managed jobs keep running; cancel them
// from a hook or beforehand if the policy requires it.
func (s *Service) Stop() {
	if !s.started.Load() {
		return
	}
	select {
	case <-s.stopCh:
		return // already stopped
	default:
	}
	s.runStopHooks()
	s.closeOnce.Do(func() { close(s.stopCh) })
	s.queue.close()
	s.mu.Lock()
	for name, t := range s.timers {
		t.Stop()
		delete(s.timers, name)
	}
	s.mu.Unlock()
	s.cfg.SAM.RemoveListener(s.cfg.Name)
	s.done.Wait()
}

// runStopHooks runs the registered teardown hooks exactly once, in
// reverse registration order (last set up, first torn down). A panicking
// hook is contained and journalled so the remaining hooks — and the shutdown
// itself — still run.
func (s *Service) runStopHooks() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		hooks := append([]func(*Actions){}, s.stopHooks...)
		s.mu.Unlock()
		for i := len(hooks) - 1; i >= 0; i-- {
			func() {
				defer func() {
					if r := recover(); r != nil {
						s.record(journal.Event{Action: "stop-hook-panic"}, fmt.Errorf("%v", r))
					}
				}()
				hooks[i](s.actions)
			}()
		}
	})
}

// UnregisterEventScope removes the subscription with the given scope key
// and retires it: events already matched and queued for it are not
// delivered to it.
func (s *Service) UnregisterEventScope(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.subIndex(key); i >= 0 {
		s.subs[i].retired.Store(true)
		s.subs = slices.Delete(s.subs, i, i+1)
	}
}

// subIndex returns the position of the subscription with the given scope
// key in s.subs, or -1. The caller holds s.mu.
func (s *Service) subIndex(key string) int {
	return slices.IndexFunc(s.subs, func(sub *Subscription) bool { return sub.scope.Key() == key })
}

// SetMetricPullInterval changes the SRM pull period (§4.2: developers
// can change the frequency at any point of the execution). The pull
// loop's wait restarts with the new period, so the next pull is one new
// period away, not whatever the old one still owes.
func (s *Service) SetMetricPullInterval(d time.Duration) {
	if d > 0 {
		s.pullInterval.Store(int64(d))
		select {
		case s.pullReset <- struct{}{}:
		default: // a wake-up is pending already
		}
	}
}

// dispatchLoop is the single delivery goroutine: one event, one handler,
// run to completion (§4.2).
func (s *Service) dispatchLoop() {
	defer s.done.Done()
	for {
		d, ok := s.queue.pop()
		if !ok {
			return
		}
		s.deliver(d)
	}
}

func (s *Service) deliver(d *delivered) {
	atomic.AddUint64(&s.delivered, 1)
	s.currentTx.Store(s.assignTx(d.data))
	defer func() {
		if r := recover(); r != nil {
			atomic.AddUint64(&s.panics, 1)
			s.record(journal.Event{Action: "handler-panic", Note: d.data.kind.String()}, fmt.Errorf("%v", r))
		}
		s.currentTx.Store(0)
	}()
	if d.data.kind == KindOrcaStart {
		s.mu.Lock()
		subs := append([]*Subscription(nil), s.startSubs...)
		s.mu.Unlock()
		for _, sub := range subs {
			s.invokeSub(sub, d.data)
		}
		s.startSeen.Store(true)
		return
	}
	// The subscriptions matched on enqueue travel with the event; one
	// unregistered since is skipped.
	for _, sub := range d.subs {
		if !sub.retired.Load() {
			s.invokeSub(sub, d.data)
		}
	}
}

// invokeSub runs one routine subscription's handler. ErrSkipped reports
// "condition not met" and is not an error; anything else is journalled
// and counted in Stats.HandlerErrors.
func (s *Service) invokeSub(sub *Subscription, data *eventData) {
	if err := sub.invoke(s, data.ctx); err != nil && !errors.Is(err, ErrSkipped) {
		atomic.AddUint64(&s.handlerErrs, 1)
		s.record(journal.Event{Action: "handler-error", Target: sub.routine, Note: data.kind.String()}, err)
	}
}

// enqueue matches an event against the registered subscriptions and
// queues it with the matched ones; events matching nothing are dropped
// (§4.1).
func (s *Service) enqueue(d *eventData) {
	s.mu.Lock()
	g := s.graphs[d.job]
	var subs []*Subscription
	for _, sub := range s.subs {
		if sub.scope.matches(d, g) {
			subs = append(subs, sub)
		}
	}
	s.mu.Unlock()
	if len(subs) == 0 {
		atomic.AddUint64(&s.dropped, 1)
		return
	}
	atomic.AddUint64(&s.matched, 1)
	s.queue.push(&delivered{data: d, subs: subs})
}

// pullLoop periodically queries SRM for the metrics of every job the
// service manages.
func (s *Service) pullLoop() {
	defer s.done.Done()
	for {
		d := time.Duration(s.pullInterval.Load())
		select {
		case <-s.stopCh:
			return
		case <-s.pullReset:
		case <-s.clock.After(d):
			if s.startSeen.Load() {
				s.PullMetricsNow()
			}
		}
	}
}

// PullMetricsNow performs one SRM metric pull immediately: all samples of
// the jobs the service manages are fetched in one round, stamped with a
// fresh shared epoch, matched, and enqueued. Experiment drivers call it
// directly for deterministic rounds.
func (s *Service) PullMetricsNow() {
	s.mu.Lock()
	jobs := make([]ids.JobID, 0, len(s.graphs))
	for j := range s.graphs {
		jobs = append(jobs, j)
	}
	s.metricEpoch++
	epoch := s.metricEpoch
	s.mu.Unlock()
	if len(jobs) == 0 {
		return
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i] < jobs[j] })
	for _, m := range s.cfg.SRM.Query(jobs) {
		s.enqueue(sampleToEvent(m, epoch))
	}
}

func sampleToEvent(m metrics.Sample, epoch uint64) *eventData {
	d := &eventData{
		job: m.Job, app: m.App, pe: m.PE,
		operator: m.Operator, operatorKind: m.OperatorKind,
		port: m.Port, dir: m.Dir, metric: m.Name, custom: m.Custom,
	}
	switch m.Scope {
	case metrics.OperatorScope:
		d.kind = KindOperatorMetric
		d.ctx = &OperatorMetricContext{
			Job: m.Job, App: m.App, InstanceName: m.Operator, OperatorKind: m.OperatorKind,
			PE: m.PE, Metric: m.Name, Custom: m.Custom, Value: m.Value, Epoch: epoch, At: m.At,
		}
	case metrics.PEScope:
		d.kind = KindPEMetric
		d.ctx = &PEMetricContext{
			Job: m.Job, App: m.App, PE: m.PE, Metric: m.Name, Value: m.Value, Epoch: epoch, At: m.At,
		}
	case metrics.PortScope:
		d.kind = KindPortMetric
		d.ctx = &PortMetricContext{
			Job: m.Job, App: m.App, InstanceName: m.Operator, OperatorKind: m.OperatorKind,
			PE: m.PE, Port: m.Port, Dir: m.Dir, Metric: m.Name, Value: m.Value, Epoch: epoch, At: m.At,
		}
	}
	return d
}

// onPEFailure receives SAM's push notification (§4.2): it assigns an
// epoch derived from the crash reason and detection timestamp and
// enqueues the event. The graph needs no update: PE states are SAM's.
func (s *Service) onPEFailure(f sam.PEFailure) {
	epoch := s.failureEpoch(f.Reason, f.At)
	s.enqueue(&eventData{
		kind: KindPEFailure, job: f.Job, app: f.App, pe: f.PE, host: f.Host,
		ctx: &PEFailureContext{
			PE: f.PE, Job: f.Job, App: f.App, Host: f.Host, Reason: f.Reason,
			Operators: f.Operators, Epoch: epoch, At: f.At,
		},
	})
}

// onHostDown receives SRM's host failure notification. Reconstructing the
// same reason string the host's PE kills carried aligns the epochs.
func (s *Service) onHostDown(h srm.HostDown) {
	epoch := s.failureEpoch(cluster.HostFailureReason(h.Host, h.At), h.At)
	s.enqueue(&eventData{
		kind: KindHostFailure, host: h.Host,
		ctx: &HostFailureContext{Host: h.Host, Epoch: epoch, At: h.At},
	})
}

func (s *Service) failureEpoch(reason string, at time.Time) uint64 {
	key := fmt.Sprintf("%s@%d", reason, at.UnixNano())
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.failEpochs[key]; ok {
		return e
	}
	s.nextFailure++
	s.failEpochs[key] = s.nextFailure
	return s.nextFailure
}

// StartTimer schedules a named one-shot timer event after d. Re-using a
// name replaces the pending timer.
func (s *Service) StartTimer(name string, d time.Duration) error {
	if name == "" {
		return fmt.Errorf("core: timer needs a name")
	}
	s.mu.Lock()
	if old, ok := s.timers[name]; ok {
		old.Stop()
	}
	s.timers[name] = s.clock.AfterFunc(d, func() {
		s.mu.Lock()
		delete(s.timers, name)
		s.mu.Unlock()
		s.enqueue(&eventData{
			kind: KindTimer, name: name,
			ctx: &TimerContext{Name: name, At: s.clock.Now()},
		})
	})
	s.mu.Unlock()
	return nil
}

// StartPeriodicTimer schedules a recurring timer event every interval.
func (s *Service) StartPeriodicTimer(name string, every time.Duration) error {
	if name == "" {
		return fmt.Errorf("core: timer needs a name")
	}
	if every <= 0 {
		return fmt.Errorf("core: periodic timer %q needs a positive interval", name)
	}
	var arm func()
	arm = func() {
		s.mu.Lock()
		select {
		case <-s.stopCh:
			s.mu.Unlock()
			return
		default:
		}
		s.timers[name] = s.clock.AfterFunc(every, func() {
			s.enqueue(&eventData{
				kind: KindTimer, name: name,
				ctx: &TimerContext{Name: name, At: s.clock.Now()},
			})
			arm()
		})
		s.mu.Unlock()
	}
	s.mu.Lock()
	if old, ok := s.timers[name]; ok {
		old.Stop()
	}
	s.mu.Unlock()
	arm()
	return nil
}

// CancelTimer stops a pending (or periodic) timer.
func (s *Service) CancelTimer(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.timers[name]; ok {
		t.Stop()
		delete(s.timers, name)
	}
}

// RaiseUserEvent injects a user-generated event, as the paper's command
// tool does with a direct call into the ORCA service (§3).
func (s *Service) RaiseUserEvent(name string, payload map[string]string) {
	s.enqueue(&eventData{
		kind: KindUserEvent, name: name,
		ctx: &UserEventContext{Name: name, Payload: payload, At: s.clock.Now()},
	})
}

// Stats returns service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	jobs := len(s.graphs)
	apps := len(s.apps)
	me := s.metricEpoch
	fe := s.nextFailure
	s.mu.Unlock()
	return Stats{
		QueueDepth:     s.queue.depth(),
		Delivered:      atomic.LoadUint64(&s.delivered),
		MatchedEvents:  atomic.LoadUint64(&s.matched),
		DroppedEvents:  atomic.LoadUint64(&s.dropped),
		HandlerPanics:  atomic.LoadUint64(&s.panics),
		HandlerErrors:  atomic.LoadUint64(&s.handlerErrs),
		MetricEpoch:    me,
		FailureEpoch:   fe,
		ManagedJobs:    jobs,
		RegisteredApps: apps,
	}
}
