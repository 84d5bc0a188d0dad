// Package core implements the paper's contribution: the orchestrator.
//
// An orchestrator has two halves (§3). The ORCA logic is user code — a
// set of Routines built from typed subscriptions (OnPEFailure,
// OnOperatorMetric, ...) that pair each event scope with its handler,
// declared in a Setup that returns errors instead of panicking and
// composed with guard combinators (Threshold, SuppressFor, OncePerEpoch,
// ...) for the cross-cutting activation logic. The ORCA service is the
// runtime half: it maintains an in-memory stream graph for every managed
// application, pulls metrics from SRM on a configurable interval, receives
// failure notifications pushed by SAM, matches everything against the
// registered subscopes, and delivers events one at a time with a context
// rich enough to disambiguate the logical and physical views of the
// application. The service also manages application sets with dependency
// relations (§4.4): automatic submission with uptime requirements,
// starvation-safe cancellation, and garbage collection of unused jobs.
package core

import (
	"strings"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/sam"
)

// EventKind enumerates the event types the ORCA service can deliver.
type EventKind int

// Event kinds (§4.1: service-generated events — start, job submission,
// job cancellation, timer — plus events sourced from the platform:
// metrics, failures, and user events raised through the command tool).
const (
	KindOrcaStart EventKind = iota + 1
	KindOperatorMetric
	KindPEMetric
	KindPortMetric
	KindPEFailure
	KindHostFailure
	KindJobSubmitted
	KindJobCancelled
	KindTimer
	KindUserEvent
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case KindOrcaStart:
		return "orcaStart"
	case KindOperatorMetric:
		return "operatorMetric"
	case KindPEMetric:
		return "peMetric"
	case KindPortMetric:
		return "portMetric"
	case KindPEFailure:
		return "peFailure"
	case KindHostFailure:
		return "hostFailure"
	case KindJobSubmitted:
		return "jobSubmitted"
	case KindJobCancelled:
		return "jobCancelled"
	case KindTimer:
		return "timer"
	case KindUserEvent:
		return "userEvent"
	default:
		return "unknown"
	}
}

// Tx carries an event's delivery transaction id, embedded in every
// event context.
type Tx struct {
	// TxID is a per-service, monotonically increasing sequence assigned
	// at delivery (§7's reliable-delivery extension). Actuations invoked
	// from the handler are journalled under this id.
	TxID uint64
}

func (t *Tx) setTx(id uint64) { t.TxID = id }

// txContext is what every event context is: something assignTx stamps.
type txContext interface{ setTx(uint64) }

// OrcaStartContext accompanies the start notification — the only event
// that is always in scope (§4.1).
type OrcaStartContext struct {
	// Name is the orchestrator's registered name.
	Name string
	// At is the service start time.
	At time.Time
	Tx
}

// OperatorMetricContext describes one operator metric observation. Epoch
// is the logical clock shared by all metrics of one SRM pull round
// (§4.2), letting handlers decide whether two metrics were measured
// together.
type OperatorMetricContext struct {
	Job          ids.JobID
	App          string
	InstanceName string // fully qualified operator instance name
	OperatorKind string
	PE           ids.PEID
	Metric       string
	Custom       bool
	Value        int64
	Epoch        uint64
	At           time.Time
	Tx
}

// PEMetricContext describes one PE-scoped metric observation.
type PEMetricContext struct {
	Job    ids.JobID
	App    string
	PE     ids.PEID
	Metric string
	Value  int64
	Epoch  uint64
	At     time.Time
	Tx
}

// PortMetricContext describes one operator-port metric observation.
type PortMetricContext struct {
	Job          ids.JobID
	App          string
	InstanceName string
	OperatorKind string
	PE           ids.PEID
	Port         int
	Dir          metrics.Direction
	Metric       string
	Value        int64
	Epoch        uint64
	At           time.Time
	Tx
}

// PEFailureContext describes a PE crash pushed from SAM. All failures
// sharing a cause and detection timestamp (e.g. one host failure killing
// several PEs) carry the same Epoch (§4.2).
type PEFailureContext struct {
	PE        ids.PEID
	Job       ids.JobID
	App       string
	Host      string
	Reason    string
	Operators []string // fused operators resident in the failed PE
	Epoch     uint64
	At        time.Time
	Tx
}

// Abandoned reports whether the event is SAM's degradation notification
// — RestartPE gave up on the PE after exhausting its retry budget —
// rather than a fresh crash. A handler that answers it with another
// RestartPE only burns single attempts against the same obstacle.
func (c *PEFailureContext) Abandoned() bool {
	return strings.HasPrefix(c.Reason, sam.RestartAbandoned)
}

// HostFailureContext describes a detected host failure. Its Epoch matches
// the epoch of the PE failure events the same incident produced.
type HostFailureContext struct {
	Host  string
	Epoch uint64
	At    time.Time
	Tx
}

// JobContext accompanies job submission and cancellation events. ConfigID
// names the application configuration (§4.4) when the job was managed by
// the dependency manager; it is empty for direct submissions.
type JobContext struct {
	Job      ids.JobID
	App      string
	ConfigID string
	// Cancelled distinguishes the two event kinds sharing this context:
	// false for a submission, true for a cancellation — so a single
	// OnJobEvent subscription covering both directions can tell them
	// apart without registering one scope per direction.
	Cancelled bool
	At        time.Time
	Tx
}

// TimerContext accompanies timer-expiration events.
type TimerContext struct {
	Name string
	At   time.Time
	Tx
}

// UserEventContext accompanies user-generated events raised through the
// command interface (§4.1).
type UserEventContext struct {
	Name    string
	Payload map[string]string
	At      time.Time
	Tx
}

// eventData is the neutral representation the scope matcher operates on;
// ctx holds the typed context delivered to the handler.
type eventData struct {
	kind         EventKind
	job          ids.JobID
	app          string
	operator     string
	operatorKind string
	pe           ids.PEID
	host         string
	port         int
	dir          metrics.Direction
	metric       string
	custom       bool
	name         string // timer or user event name
	ctx          txContext
}

// delivered is one queued event with the subscriptions it matched.
type delivered struct {
	data *eventData
	subs []*Subscription
}
