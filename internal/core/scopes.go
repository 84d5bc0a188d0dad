package core

import (
	"slices"

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

// filter is the one subscope every scope type wraps: the event kinds it
// accepts plus one value list per eventData attribute. An empty list
// admits every value. A scope type exposes builders only for the
// attributes its events carry, so the lists of the others stay empty.
type filter struct {
	key            string
	kinds          []EventKind
	apps           []string
	pes            []ids.PEID
	hosts          []string
	operatorKinds  []string
	operatorNames  []string
	compositeTypes []string
	compositeInsts []string
	metricNames    []string
	ports          []int
	dirs           []metrics.Direction
	names          []string // timer or user-event names
	customOnly     bool
}

// Key implements Scope.
func (f *filter) Key() string { return f.key }

func (f *filter) matches(d *eventData, g *graph.Graph) bool {
	if !slices.Contains(f.kinds, d.kind) || (f.customOnly && !d.custom) ||
		!in(f.apps, d.app) || !in(f.pes, d.pe) || !in(f.hosts, d.host) ||
		!in(f.operatorKinds, d.operatorKind) || !in(f.operatorNames, d.operator) ||
		!in(f.metricNames, d.metric) || !in(f.ports, d.port) || !in(f.dirs, d.dir) ||
		!in(f.names, d.name) {
		return false
	}
	if len(f.compositeTypes) == 0 && len(f.compositeInsts) == 0 {
		return true
	}
	if g == nil || d.operator == "" {
		return false
	}
	return (len(f.compositeTypes) == 0 || slices.ContainsFunc(f.compositeTypes, func(kind string) bool {
		return g.InCompositeType(d.operator, kind)
	})) && (len(f.compositeInsts) == 0 || slices.ContainsFunc(g.CompositeChain(d.operator), func(inst string) bool {
		return slices.Contains(f.compositeInsts, inst)
	}))
}

// in reports whether v is in list; an empty list admits every value.
func in[T comparable](list []T, v T) bool {
	return len(list) == 0 || slices.Contains(list, v)
}

// OperatorMetricScope subscribes to operator-scoped metric events — the
// scope type of the paper's Figure 5.
type OperatorMetricScope struct{ filter }

// NewOperatorMetricScope creates a subscope with the given key.
func NewOperatorMetricScope(key string) *OperatorMetricScope {
	return &OperatorMetricScope{filter{key: key, kinds: []EventKind{KindOperatorMetric}}}
}

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
	s.operatorKinds = append(s.operatorKinds, kinds...)
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

// PEMetricScope subscribes to PE-scoped metric events (byte counters,
// restart counts).
type PEMetricScope struct{ filter }

// NewPEMetricScope creates a subscope with the given key.
func NewPEMetricScope(key string) *PEMetricScope {
	return &PEMetricScope{filter{key: key, kinds: []EventKind{KindPEMetric}}}
}

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

// PortMetricScope subscribes to operator-port metric events — e.g. the
// final-punctuation metric of a sink operator the dynamic-composition use
// case watches (§5.3).
type PortMetricScope struct{ filter }

// NewPortMetricScope creates a subscope with the given key.
func NewPortMetricScope(key string) *PortMetricScope {
	return &PortMetricScope{filter{key: key, kinds: []EventKind{KindPortMetric}}}
}

// AddApplicationFilter restricts events to the named applications.
func (s *PortMetricScope) AddApplicationFilter(apps ...string) *PortMetricScope {
	s.apps = append(s.apps, apps...)
	return s
}

// AddOperatorTypeFilter restricts events to operators of the named kinds.
func (s *PortMetricScope) AddOperatorTypeFilter(kinds ...string) *PortMetricScope {
	s.operatorKinds = append(s.operatorKinds, kinds...)
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

// SetDirection restricts events to input or output ports; the last call
// wins.
func (s *PortMetricScope) SetDirection(d metrics.Direction) *PortMetricScope {
	s.dirs = []metrics.Direction{d}
	return s
}

// AddPortMetric restricts events to the named port metrics.
func (s *PortMetricScope) AddPortMetric(names ...string) *PortMetricScope {
	s.metricNames = append(s.metricNames, names...)
	return s
}

// PEFailureScope subscribes to PE crash events — Figure 5's second
// subscope.
type PEFailureScope struct{ filter }

// NewPEFailureScope creates a subscope with the given key.
func NewPEFailureScope(key string) *PEFailureScope {
	return &PEFailureScope{filter{key: key, kinds: []EventKind{KindPEFailure}}}
}

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

// HostFailureScope subscribes to host failure events.
type HostFailureScope struct{ filter }

// NewHostFailureScope creates a subscope with the given key.
func NewHostFailureScope(key string) *HostFailureScope {
	return &HostFailureScope{filter{key: key, kinds: []EventKind{KindHostFailure}}}
}

// AddHostFilter restricts events to the named hosts.
func (s *HostFailureScope) AddHostFilter(hosts ...string) *HostFailureScope {
	s.hosts = append(s.hosts, hosts...)
	return s
}

// JobEventScope subscribes to job submission and/or cancellation events
// the service itself generates (§4.1, §4.4).
type JobEventScope struct{ filter }

// NewJobEventScope creates a subscope delivering both submissions and
// cancellations; narrow with SubmissionsOnly or CancellationsOnly.
func NewJobEventScope(key string) *JobEventScope {
	return &JobEventScope{filter{key: key, kinds: []EventKind{KindJobSubmitted, KindJobCancelled}}}
}

// AddApplicationFilter restricts events to the named applications.
func (s *JobEventScope) AddApplicationFilter(apps ...string) *JobEventScope {
	s.apps = append(s.apps, apps...)
	return s
}

// SubmissionsOnly drops cancellation events.
func (s *JobEventScope) SubmissionsOnly() *JobEventScope {
	s.kinds = []EventKind{KindJobSubmitted}
	return s
}

// CancellationsOnly drops submission events.
func (s *JobEventScope) CancellationsOnly() *JobEventScope {
	s.kinds = []EventKind{KindJobCancelled}
	return s
}

// TimerScope subscribes to timer-expiration events.
type TimerScope struct{ filter }

// NewTimerScope creates a subscope with the given key.
func NewTimerScope(key string) *TimerScope {
	return &TimerScope{filter{key: key, kinds: []EventKind{KindTimer}}}
}

// AddTimerFilter restricts events to the named timers.
func (s *TimerScope) AddTimerFilter(names ...string) *TimerScope {
	s.names = append(s.names, names...)
	return s
}

// UserEventScope subscribes to user-generated events raised through the
// command interface.
type UserEventScope struct{ filter }

// NewUserEventScope creates a subscope with the given key.
func NewUserEventScope(key string) *UserEventScope {
	return &UserEventScope{filter{key: key, kinds: []EventKind{KindUserEvent}}}
}

// AddNameFilter restricts events to the named user events.
func (s *UserEventScope) AddNameFilter(names ...string) *UserEventScope {
	s.names = append(s.names, names...)
	return s
}
