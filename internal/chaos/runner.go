package chaos

import (
	"fmt"
	"sort"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/cluster"
	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/sam"
	"streamorca/internal/vclock"
)

// Runner drives a live platform instance through a Schedule. It layers
// over any scenario: point it at the scenario's cluster, SAM, and (for
// store faults) its FaultStore, then call Run while the workload flows.
type Runner struct {
	// Clock paces the schedule; nil means the wall clock.
	Clock vclock.Clock
	// Cluster receives host kills, revivals, and metric delays.
	Cluster *cluster.Cluster
	// SAM resolves and kills PE targets; Run journals every event in
	// its ring.
	SAM *sam.SAM
	// Store receives the Ckpt* fault arms; nil skips those events.
	Store *ckpt.FaultStore
}

// killWait bounds how long a KillPE event waits for its target to be
// running before giving up. PE ids are stable across restarts, so
// waiting out a concurrent restart keeps the number of applied kills
// deterministic run over run.
const killWait = 250 * time.Millisecond

// Report counts what a Run did.
type Report struct {
	// Applied counts events that took effect; Skipped counts events
	// whose target was unavailable (no running PE, host already in the
	// demanded state, no store attached).
	Applied int
	Skipped int
	// PerKind maps each kind to its applied count.
	PerKind map[Kind]int
}

// Run fires every event of the schedule in order, sleeping the
// inter-event gaps on the runner clock, journals each one under Source
// "chaos" in the SAM's ring (Err says why a skipped event did not take
// effect), and returns what was applied. It blocks until the last event
// fired; run it from its own goroutine to overlap with the workload.
func (r *Runner) Run(s Schedule) *Report {
	clock := r.Clock
	if clock == nil {
		clock = vclock.Real()
	}
	rep := &Report{PerKind: make(map[Kind]int)}
	start := clock.Now()
	for i, ev := range s.Events {
		if wait := ev.Offset - clock.Now().Sub(start); wait > 0 {
			clock.Sleep(wait)
		}
		e := r.apply(ev, i, clock)
		e.Source, e.Action, e.Note = "chaos", ev.Kind.String(), ev.String()
		r.SAM.Journal().Add(e)
		if e.Err == "" {
			rep.Applied++
			rep.PerKind[ev.Kind]++
		} else {
			rep.Skipped++
		}
	}
	return rep
}

// apply fires one event and returns its journal entry: the target it
// hit, or in Err why it did not take effect.
func (r *Runner) apply(ev Event, i int, clock vclock.Clock) journal.Event {
	switch ev.Kind {
	case KillPE:
		id, ok := r.resolvePE(ev.Target, clock)
		if !ok {
			return journal.Event{Err: "no running PE"}
		}
		if err := r.SAM.KillPE(id, fmt.Sprintf("chaos: injected PE kill (event %d)", i)); err != nil {
			return journal.Event{Err: err.Error()}
		}
		return journal.Event{PE: id}
	case KillHost:
		name, ok := r.hostName(ev.Target)
		if !ok {
			return journal.Event{Err: "no such host"}
		}
		if !r.Cluster.HostUp(name) {
			return journal.Event{Err: "already down"}
		}
		if r.upHosts() <= 1 {
			return journal.Event{Err: "last live host"}
		}
		if err := r.Cluster.KillHost(name); err != nil {
			return journal.Event{Err: err.Error()}
		}
		return journal.Event{Target: name}
	case ReviveHost:
		name, ok := r.hostName(ev.Target)
		if !ok {
			return journal.Event{Err: "no such host"}
		}
		if r.Cluster.HostUp(name) {
			return journal.Event{Err: "already up"}
		}
		if err := r.Cluster.ReviveHost(name); err != nil {
			return journal.Event{Err: err.Error()}
		}
		return journal.Event{Target: name}
	case MetricDelay:
		name, ok := r.hostName(ev.Target)
		if !ok {
			return journal.Event{Err: "no such host"}
		}
		if err := r.Cluster.DelayMetrics(name, ev.Amount); err != nil {
			return journal.Event{Err: err.Error()}
		}
		return journal.Event{Target: name}
	case CkptFail:
		if r.Store == nil {
			return journal.Event{Err: "no fault store"}
		}
		r.Store.FailSaves(1)
		return journal.Event{}
	case CkptTear:
		if r.Store == nil {
			return journal.Event{Err: "no fault store"}
		}
		r.Store.TearSaves(1)
		return journal.Event{}
	case CkptDrop:
		if r.Store == nil {
			return journal.Event{Err: "no fault store"}
		}
		r.Store.DropSaves(1)
		return journal.Event{}
	case CkptLatency:
		if r.Store == nil {
			return journal.Event{Err: "no fault store"}
		}
		r.Store.SetLatency(ev.Amount)
		return journal.Event{}
	default:
		return journal.Event{Err: "unknown kind"}
	}
}

// resolvePE maps an abstract target index onto the deterministically
// ordered list of all PEs of all jobs (PE ids are stable across
// restarts), then waits — bounded — for that PE to be running, so a
// kill landing during a concurrent restart still applies.
func (r *Runner) resolvePE(target int, clock vclock.Clock) (ids.PEID, bool) {
	deadline := clock.Now().Add(killWait)
	for {
		var pes []sam.PERuntimeInfo
		for _, job := range r.SAM.Jobs() {
			pes = append(pes, job.PEs...)
		}
		if len(pes) == 0 {
			return 0, false
		}
		sort.Slice(pes, func(i, j int) bool { return pes[i].ID < pes[j].ID })
		p := pes[target%len(pes)]
		if p.State == "running" {
			return p.ID, true
		}
		if !clock.Now().Before(deadline) {
			return 0, false
		}
		clock.Sleep(2 * time.Millisecond)
	}
}

// hostName maps a host index onto the name-sorted host list.
func (r *Runner) hostName(idx int) (string, bool) {
	hosts := r.Cluster.Hosts()
	if len(hosts) == 0 {
		return "", false
	}
	return hosts[idx%len(hosts)].Name, true
}

// upHosts counts live hosts.
func (r *Runner) upHosts() int {
	n := 0
	for _, h := range r.Cluster.Hosts() {
		if h.Up {
			n++
		}
	}
	return n
}
