// Package metrics implements the platform's runtime metrics: built-in
// counters maintained for every operator, port, and PE, plus custom
// (operator-defined) metrics. The per-host controllers snapshot these sets
// periodically and push them to SRM, which is the single source the
// orchestrator pulls from — metric collection therefore never touches the
// tuple hot path, matching the paper's §3 performance argument.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamorca/internal/ids"
)

// Built-in operator metric names.
const (
	OpTuplesProcessed = "nTuplesProcessed"
	OpTuplesSubmitted = "nTuplesSubmitted"
	OpPunctsProcessed = "nPunctsProcessed"
	OpQueueSize       = "queueSize" // tuples pending in the operator's inbox, refreshed at snapshot time
)

// Built-in port metric names.
const (
	PortTuplesProcessed   = "nTuplesProcessed"
	PortTuplesSubmitted   = "nTuplesSubmitted"
	PortFinalPunctsQueued = "nFinalPunctsQueued"
)

// Built-in PE metric names.
const (
	PETupleBytesProcessed = "nTupleBytesProcessed"
	PETupleBytesSubmitted = "nTupleBytesSubmitted"
	PETuplesProcessed     = "nTuplesProcessed"
	PETuplesSubmitted     = "nTuplesSubmitted"
	// PETuplesDropped counts tuples that reached the container but never
	// an operator: the failed chunk and the undelivered rest of the
	// drained run when a failure or a kill ends the consume loop
	// part-way (journalled as well), and every tuple offered to an operator
	// that had already finalised or to a dead container.
	PETuplesDropped = "nTuplesDropped"
	// PETuplesDroppedCodec counts, on the sending PE, tuples a cross-PE
	// link discarded because they failed to encode or to decode; a link
	// between matching schemas never steps it.
	PETuplesDroppedCodec = "nTuplesDroppedCodecError"
	PERestarts           = "nRestarts"
	// PERestartAttempts is the cumulative count of restart attempts SAM
	// spent on this PE, retries included; compared against nRestarts it
	// exposes how hard the retry layer had to work.
	PERestartAttempts = "nRestartAttempts"
	// PECheckpoints counts completed state snapshots of the container;
	// PECheckpointBytes accumulates their encoded sizes; PEStateRestores
	// counts operators whose state a restart restored from a snapshot.
	PECheckpoints     = "nCheckpoints"
	PECheckpointBytes = "nCheckpointBytes"
	PEStateRestores   = "nStateRestores"
	// PECheckpointAgeMs is a gauge: milliseconds elapsed on the platform
	// clock since the container's state was last anchored to a snapshot
	// (a completed checkpoint, or a restore at start-up), -1 while no
	// such anchor exists. It is the checkpoint-aware failover policy's
	// health signal: the smaller the age, the less state a restart of
	// this PE would lose.
	PECheckpointAgeMs = "lastCheckpointAgeMs"
	// PEIngestRate and PEEgressRate are gauges: the container's tuple
	// ingest and egress rates in tuples/sec, computed from the deltas of
	// nTuplesProcessed / nTuplesSubmitted between metric snapshots. Load
	// drivers read them for sustained-throughput reporting, and the
	// ingest rate of a region's split PE is the offered-load signal the
	// fission routine (internal/policies.Fission) widens hot parallel
	// regions on.
	PEIngestRate = "ingestRatePerSec"
	PEEgressRate = "egressRatePerSec"
)

// Counter is a 64-bit metric cell. Built-in counters are monotonic except
// queue gauges, which use Set.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Set stores an absolute value (gauge semantics).
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Set is a named collection of counters, safe for concurrent use. Counters
// are created on first access and never removed.
type Set struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

// NewSet returns an empty metric set.
func NewSet() *Set { return &Set{counters: make(map[string]*Counter)} }

// Counter returns the named counter, creating it at zero if needed.
func (s *Set) Counter(name string) *Counter {
	s.mu.RLock()
	c, ok := s.counters[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.counters[name]; ok {
		return c
	}
	c = &Counter{}
	s.counters[name] = c
	return c
}

// Lookup returns the named counter without creating it.
func (s *Set) Lookup(name string) (*Counter, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.counters[name]
	return c, ok
}

// Names returns the counter names in sorted order.
func (s *Set) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a point-in-time copy of every counter.
func (s *Set) Snapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.counters))
	for n, c := range s.counters {
		out[n] = c.Value()
	}
	return out
}

// OpMetrics holds one operator instance's metrics: the built-in set plus
// operator-created custom metrics, kept apart so samples can be tagged.
type OpMetrics struct {
	Builtin *Set
	Custom  *Set
}

// NewOpMetrics returns empty operator metrics with the standard built-ins
// pre-created so they always appear in snapshots.
func NewOpMetrics() *OpMetrics {
	m := &OpMetrics{Builtin: NewSet(), Custom: NewSet()}
	for _, n := range []string{OpTuplesProcessed, OpTuplesSubmitted, OpPunctsProcessed, OpQueueSize} {
		m.Builtin.Counter(n)
	}
	return m
}

// Scope identifies what entity a metric sample describes.
type Scope uint8

// Sample scopes.
const (
	OperatorScope Scope = iota + 1
	PortScope
	PEScope
)

// String names the scope.
func (s Scope) String() string {
	switch s {
	case OperatorScope:
		return "operator"
	case PortScope:
		return "port"
	case PEScope:
		return "pe"
	default:
		return "unknown"
	}
}

// Direction distinguishes input from output ports in port-scoped samples.
type Direction uint8

// Port directions.
const (
	Input Direction = iota + 1
	Output
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Input:
		return "input"
	case Output:
		return "output"
	default:
		return "unknown"
	}
}

// Sample is one metric observation as stored by SRM and delivered to the
// orchestrator. It carries enough identity for the ORCA service to resolve
// the sample against its stream-graph representation.
type Sample struct {
	Scope        Scope
	Job          ids.JobID
	App          string
	PE           ids.PEID
	Operator     string // fully qualified logical instance name
	OperatorKind string
	Port         int
	Dir          Direction
	Name         string
	Custom       bool
	Value        int64
	At           time.Time
}
