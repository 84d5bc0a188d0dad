// Package srm implements the Streams Resource Manager daemon (§2.2): it
// relays the host controllers' process and host failure reports to their
// subscribers (SAM, the ORCA service), and serves as the central
// collector for every built-in and custom metric in the system. The ORCA
// service pulls metrics from SRM — never from the operators — which is
// why metric-scope orchestration stays off the tuple hot path.
//
// SRM keeps no host or PE table of its own: which hosts are up is the
// cluster's to answer, and which PEs run where is SAM's.
package srm

import (
	"sort"
	"sync"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/metrics"
)

// PEExit describes a PE leaving the running state, as reported by the
// host controller that supervised it.
type PEExit struct {
	PE      ids.PEID
	Job     ids.JobID
	App     string
	Host    string
	Crashed bool
	Reason  string
	At      time.Time
}

// HostDown describes a detected host failure.
type HostDown struct {
	Host string
	At   time.Time
}

// SRM is the resource manager daemon.
type SRM struct {
	mu       sync.RWMutex
	store    map[sampleKey]metrics.Sample
	exitSubs []func(PEExit)
	downSubs []func(HostDown)
}

type sampleKey struct {
	scope    metrics.Scope
	job      ids.JobID
	pe       ids.PEID
	operator string
	port     int
	dir      metrics.Direction
	name     string
}

// New returns an empty SRM.
func New() *SRM {
	return &SRM{store: make(map[sampleKey]metrics.Sample)}
}

// ReportHostDown notifies subscribers of a host failure. The host
// controller's PE exits arrive separately with the same detection time so
// downstream consumers (the ORCA service) can correlate them into one
// epoch (§4.2).
func (s *SRM) ReportHostDown(name string, at time.Time) {
	s.mu.RLock()
	subs := append([]func(HostDown){}, s.downSubs...)
	s.mu.RUnlock()
	for _, fn := range subs {
		fn(HostDown{Host: name, At: at})
	}
}

// PushSamples ingests a metric batch from a host controller. Later
// samples for the same metric replace earlier ones.
func (s *SRM) PushSamples(batch []metrics.Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range batch {
		s.store[sampleKey{m.Scope, m.Job, m.PE, m.Operator, m.Port, m.Dir, m.Name}] = m
	}
}

// Query returns the latest sample of every metric belonging to any of the
// given jobs, in a deterministic order. This is the call the ORCA service
// issues on its pull interval (§4.2); one response carries all metrics of
// the managed jobs.
func (s *SRM) Query(jobs []ids.JobID) []metrics.Sample {
	want := make(map[ids.JobID]bool, len(jobs))
	for _, j := range jobs {
		want[j] = true
	}
	s.mu.RLock()
	out := make([]metrics.Sample, 0, 64)
	for _, m := range s.store {
		if want[m.Job] {
			out = append(out, m)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Job != b.Job:
			return a.Job < b.Job
		case a.PE != b.PE:
			return a.PE < b.PE
		case a.Operator != b.Operator:
			return a.Operator < b.Operator
		case a.Scope != b.Scope:
			return a.Scope < b.Scope
		case a.Port != b.Port:
			return a.Port < b.Port
		case a.Dir != b.Dir:
			return a.Dir < b.Dir
		default:
			return a.Name < b.Name
		}
	})
	return out
}

// DropJob discards all stored samples of a cancelled job.
func (s *SRM) DropJob(job ids.JobID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.store {
		if k.job == job {
			delete(s.store, k)
		}
	}
}

// ReportPEExit ingests a PE exit notification from a host controller and
// fans it out to subscribers (SAM).
func (s *SRM) ReportPEExit(e PEExit) {
	s.mu.RLock()
	subs := append([]func(PEExit){}, s.exitSubs...)
	s.mu.RUnlock()
	for _, fn := range subs {
		fn(e)
	}
}

// OnPEExit subscribes to PE exit notifications.
func (s *SRM) OnPEExit(fn func(PEExit)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exitSubs = append(s.exitSubs, fn)
}

// OnHostDown subscribes to host failure notifications.
func (s *SRM) OnHostDown(fn func(HostDown)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.downSubs = append(s.downSubs, fn)
}
