package core

import (
	"fmt"

	"streamorca/internal/graph"
	"streamorca/internal/ids"
	"streamorca/internal/metrics"
)

// Scope is one registered subscope. The ORCA service's event scope is the
// disjunction of all registered subscopes; an event is delivered when it
// matches at least one, and delivered exactly once with the keys of every
// subscope it matched (§4.1/§4.2).
//
// Filter semantics: values added for the same attribute are disjunctive
// (any may match); filters on different attributes are conjunctive (all
// must match); an attribute with no filter matches everything.
type Scope interface {
	// Key returns the developer-assigned subscope key.
	Key() string
	// matches evaluates the subscope against an event, resolving
	// graph-structural filters (composite containment) through the
	// service's stream graph for the event's job.
	matches(d *eventData, g *graph.Graph) bool
}

// structural holds the filters shared by scopes whose events attach to a
// point in the application graph.
type structural struct {
	apps           []string
	compositeTypes []string
	compositeInsts []string
	operatorTypes  []string
	operatorNames  []string
	pes            []ids.PEID
}

func (f *structural) matchStructural(d *eventData, g *graph.Graph) bool {
	if len(f.apps) > 0 && !containsStr(f.apps, d.app) {
		return false
	}
	if len(f.pes) > 0 && !containsPE(f.pes, d.pe) {
		return false
	}
	if len(f.operatorTypes) > 0 && !containsStr(f.operatorTypes, d.operatorKind) {
		return false
	}
	if len(f.operatorNames) > 0 && !containsStr(f.operatorNames, d.operator) {
		return false
	}
	if len(f.compositeTypes) > 0 {
		if g == nil || d.operator == "" {
			return false
		}
		ok := false
		for _, kind := range f.compositeTypes {
			if g.InCompositeType(d.operator, kind) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.compositeInsts) > 0 {
		if g == nil || d.operator == "" {
			return false
		}
		ok := false
		for _, inst := range f.compositeInsts {
			if containsStr(g.CompositeChain(d.operator), inst) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// OperatorMetricScope subscribes to operator-scoped metric events — the
// scope type of the paper's Figure 5.
type OperatorMetricScope struct {
	key string
	structural
	metricNames []string
	customOnly  bool
}

// NewOperatorMetricScope creates a subscope with the given key.
func NewOperatorMetricScope(key string) *OperatorMetricScope {
	return &OperatorMetricScope{key: key}
}

// Key implements Scope.
func (s *OperatorMetricScope) Key() string { return s.key }

// AddApplicationFilter restricts events to the named applications.
func (s *OperatorMetricScope) AddApplicationFilter(apps ...string) *OperatorMetricScope {
	s.apps = append(s.apps, apps...)
	return s
}

// AddCompositeTypeFilter restricts events to operators residing (at any
// nesting depth) inside composite instances of the named types.
func (s *OperatorMetricScope) AddCompositeTypeFilter(kinds ...string) *OperatorMetricScope {
	s.compositeTypes = append(s.compositeTypes, kinds...)
	return s
}

// AddCompositeInstanceFilter restricts events to operators inside the
// named composite instances.
func (s *OperatorMetricScope) AddCompositeInstanceFilter(insts ...string) *OperatorMetricScope {
	s.compositeInsts = append(s.compositeInsts, insts...)
	return s
}

// AddOperatorTypeFilter restricts events to operators of the named kinds.
func (s *OperatorMetricScope) AddOperatorTypeFilter(kinds ...string) *OperatorMetricScope {
	s.operatorTypes = append(s.operatorTypes, kinds...)
	return s
}

// AddOperatorNameFilter restricts events to the named operator instances.
func (s *OperatorMetricScope) AddOperatorNameFilter(names ...string) *OperatorMetricScope {
	s.operatorNames = append(s.operatorNames, names...)
	return s
}

// AddPEFilter restricts events to operators resident in the given PEs.
func (s *OperatorMetricScope) AddPEFilter(pes ...ids.PEID) *OperatorMetricScope {
	s.pes = append(s.pes, pes...)
	return s
}

// AddOperatorMetric restricts events to the named metrics (built-in names
// like metrics.OpQueueSize, or custom metric names).
func (s *OperatorMetricScope) AddOperatorMetric(names ...string) *OperatorMetricScope {
	s.metricNames = append(s.metricNames, names...)
	return s
}

// CustomMetricsOnly restricts events to operator-defined custom metrics.
func (s *OperatorMetricScope) CustomMetricsOnly() *OperatorMetricScope {
	s.customOnly = true
	return s
}

func (s *OperatorMetricScope) matches(d *eventData, g *graph.Graph) bool {
	if d.kind != KindOperatorMetric {
		return false
	}
	if s.customOnly && !d.custom {
		return false
	}
	if len(s.metricNames) > 0 && !containsStr(s.metricNames, d.metric) {
		return false
	}
	return s.matchStructural(d, g)
}

// PEMetricScope subscribes to PE-scoped metric events (byte counters,
// restart counts).
type PEMetricScope struct {
	key         string
	apps        []string
	pes         []ids.PEID
	metricNames []string
}

// NewPEMetricScope creates a subscope with the given key.
func NewPEMetricScope(key string) *PEMetricScope { return &PEMetricScope{key: key} }

// Key implements Scope.
func (s *PEMetricScope) Key() string { return s.key }

// AddApplicationFilter restricts events to the named applications.
func (s *PEMetricScope) AddApplicationFilter(apps ...string) *PEMetricScope {
	s.apps = append(s.apps, apps...)
	return s
}

// AddPEFilter restricts events to the given PEs.
func (s *PEMetricScope) AddPEFilter(pes ...ids.PEID) *PEMetricScope {
	s.pes = append(s.pes, pes...)
	return s
}

// AddPEMetric restricts events to the named PE metrics.
func (s *PEMetricScope) AddPEMetric(names ...string) *PEMetricScope {
	s.metricNames = append(s.metricNames, names...)
	return s
}

func (s *PEMetricScope) matches(d *eventData, _ *graph.Graph) bool {
	if d.kind != KindPEMetric {
		return false
	}
	if len(s.apps) > 0 && !containsStr(s.apps, d.app) {
		return false
	}
	if len(s.pes) > 0 && !containsPE(s.pes, d.pe) {
		return false
	}
	return len(s.metricNames) == 0 || containsStr(s.metricNames, d.metric)
}

// PortMetricScope subscribes to operator-port metric events — e.g. the
// final-punctuation metric of a sink operator the dynamic-composition use
// case watches (§5.3).
type PortMetricScope struct {
	key string
	structural
	metricNames []string
	dirSet      bool
	dir         metrics.Direction
	ports       []int
}

// NewPortMetricScope creates a subscope with the given key.
func NewPortMetricScope(key string) *PortMetricScope { return &PortMetricScope{key: key} }

// Key implements Scope.
func (s *PortMetricScope) Key() string { return s.key }

// AddApplicationFilter restricts events to the named applications.
func (s *PortMetricScope) AddApplicationFilter(apps ...string) *PortMetricScope {
	s.apps = append(s.apps, apps...)
	return s
}

// AddOperatorTypeFilter restricts events to operators of the named kinds.
func (s *PortMetricScope) AddOperatorTypeFilter(kinds ...string) *PortMetricScope {
	s.operatorTypes = append(s.operatorTypes, kinds...)
	return s
}

// AddOperatorNameFilter restricts events to the named operator instances.
func (s *PortMetricScope) AddOperatorNameFilter(names ...string) *PortMetricScope {
	s.operatorNames = append(s.operatorNames, names...)
	return s
}

// AddCompositeTypeFilter restricts events to operators inside composites
// of the named types.
func (s *PortMetricScope) AddCompositeTypeFilter(kinds ...string) *PortMetricScope {
	s.compositeTypes = append(s.compositeTypes, kinds...)
	return s
}

// AddPortFilter restricts events to the given port indices.
func (s *PortMetricScope) AddPortFilter(ports ...int) *PortMetricScope {
	s.ports = append(s.ports, ports...)
	return s
}

// SetDirection restricts events to input or output ports.
func (s *PortMetricScope) SetDirection(d metrics.Direction) *PortMetricScope {
	s.dirSet = true
	s.dir = d
	return s
}

// AddPortMetric restricts events to the named port metrics.
func (s *PortMetricScope) AddPortMetric(names ...string) *PortMetricScope {
	s.metricNames = append(s.metricNames, names...)
	return s
}

func (s *PortMetricScope) matches(d *eventData, g *graph.Graph) bool {
	if d.kind != KindPortMetric {
		return false
	}
	if s.dirSet && d.dir != s.dir {
		return false
	}
	if len(s.ports) > 0 && !containsInt(s.ports, d.port) {
		return false
	}
	if len(s.metricNames) > 0 && !containsStr(s.metricNames, d.metric) {
		return false
	}
	return s.matchStructural(d, g)
}

// PEFailureScope subscribes to PE crash events — Figure 5's second
// subscope.
type PEFailureScope struct {
	key   string
	apps  []string
	pes   []ids.PEID
	hosts []string
}

// NewPEFailureScope creates a subscope with the given key.
func NewPEFailureScope(key string) *PEFailureScope { return &PEFailureScope{key: key} }

// Key implements Scope.
func (s *PEFailureScope) Key() string { return s.key }

// AddApplicationFilter restricts events to failures of the named
// applications' PEs.
func (s *PEFailureScope) AddApplicationFilter(apps ...string) *PEFailureScope {
	s.apps = append(s.apps, apps...)
	return s
}

// AddPEFilter restricts events to the given PEs.
func (s *PEFailureScope) AddPEFilter(pes ...ids.PEID) *PEFailureScope {
	s.pes = append(s.pes, pes...)
	return s
}

// AddHostFilter restricts events to failures detected on the named hosts.
func (s *PEFailureScope) AddHostFilter(hosts ...string) *PEFailureScope {
	s.hosts = append(s.hosts, hosts...)
	return s
}

func (s *PEFailureScope) matches(d *eventData, _ *graph.Graph) bool {
	if d.kind != KindPEFailure {
		return false
	}
	if len(s.apps) > 0 && !containsStr(s.apps, d.app) {
		return false
	}
	if len(s.pes) > 0 && !containsPE(s.pes, d.pe) {
		return false
	}
	return len(s.hosts) == 0 || containsStr(s.hosts, d.host)
}

// HostFailureScope subscribes to host failure events.
type HostFailureScope struct {
	key   string
	hosts []string
}

// NewHostFailureScope creates a subscope with the given key.
func NewHostFailureScope(key string) *HostFailureScope { return &HostFailureScope{key: key} }

// Key implements Scope.
func (s *HostFailureScope) Key() string { return s.key }

// AddHostFilter restricts events to the named hosts.
func (s *HostFailureScope) AddHostFilter(hosts ...string) *HostFailureScope {
	s.hosts = append(s.hosts, hosts...)
	return s
}

func (s *HostFailureScope) matches(d *eventData, _ *graph.Graph) bool {
	if d.kind != KindHostFailure {
		return false
	}
	return len(s.hosts) == 0 || containsStr(s.hosts, d.host)
}

// JobEventScope subscribes to job submission and/or cancellation events
// the service itself generates (§4.1, §4.4).
type JobEventScope struct {
	key        string
	apps       []string
	submission bool
	cancel     bool
}

// NewJobEventScope creates a subscope delivering both submissions and
// cancellations; narrow with SubmissionsOnly or CancellationsOnly.
func NewJobEventScope(key string) *JobEventScope {
	return &JobEventScope{key: key, submission: true, cancel: true}
}

// Key implements Scope.
func (s *JobEventScope) Key() string { return s.key }

// AddApplicationFilter restricts events to the named applications.
func (s *JobEventScope) AddApplicationFilter(apps ...string) *JobEventScope {
	s.apps = append(s.apps, apps...)
	return s
}

// SubmissionsOnly drops cancellation events.
func (s *JobEventScope) SubmissionsOnly() *JobEventScope {
	s.submission, s.cancel = true, false
	return s
}

// CancellationsOnly drops submission events.
func (s *JobEventScope) CancellationsOnly() *JobEventScope {
	s.submission, s.cancel = false, true
	return s
}

func (s *JobEventScope) matches(d *eventData, _ *graph.Graph) bool {
	switch d.kind {
	case KindJobSubmitted:
		if !s.submission {
			return false
		}
	case KindJobCancelled:
		if !s.cancel {
			return false
		}
	default:
		return false
	}
	return len(s.apps) == 0 || containsStr(s.apps, d.app)
}

// TimerScope subscribes to timer-expiration events.
type TimerScope struct {
	key   string
	names []string
}

// NewTimerScope creates a subscope with the given key.
func NewTimerScope(key string) *TimerScope { return &TimerScope{key: key} }

// Key implements Scope.
func (s *TimerScope) Key() string { return s.key }

// AddTimerFilter restricts events to the named timers.
func (s *TimerScope) AddTimerFilter(names ...string) *TimerScope {
	s.names = append(s.names, names...)
	return s
}

func (s *TimerScope) matches(d *eventData, _ *graph.Graph) bool {
	if d.kind != KindTimer {
		return false
	}
	return len(s.names) == 0 || containsStr(s.names, d.name)
}

// UserEventScope subscribes to user-generated events raised through the
// command interface.
type UserEventScope struct {
	key   string
	names []string
}

// NewUserEventScope creates a subscope with the given key.
func NewUserEventScope(key string) *UserEventScope { return &UserEventScope{key: key} }

// Key implements Scope.
func (s *UserEventScope) Key() string { return s.key }

// AddNameFilter restricts events to the named user events.
func (s *UserEventScope) AddNameFilter(names ...string) *UserEventScope {
	s.names = append(s.names, names...)
	return s
}

func (s *UserEventScope) matches(d *eventData, _ *graph.Graph) bool {
	if d.kind != KindUserEvent {
		return false
	}
	return len(s.names) == 0 || containsStr(s.names, d.name)
}

func validateKey(key string) error {
	if key == "" {
		return fmt.Errorf("core: subscope with empty key")
	}
	return nil
}

func containsStr(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

func containsPE(list []ids.PEID, v ids.PEID) bool {
	for _, p := range list {
		if p == v {
			return true
		}
	}
	return false
}

func containsInt(list []int, v int) bool {
	for _, i := range list {
		if i == v {
			return true
		}
	}
	return false
}
