// Package chaos implements the deterministic fault-injection harness:
// a seeded Schedule of timestamped fault events — PE kills, host kills
// and revivals, checkpoint-store write failures, latency, torn writes,
// stale-checkpoint injection, and metric-delivery delays — and a Runner
// that drives any live platform instance through it on a vclock.Clock.
//
// Determinism is the point. Generate(seed, opts) always produces the
// same schedule for the same inputs: host up/down state is simulated
// during generation (host state only ever changes through schedule
// events), so host-targeted events always name a valid concrete host
// and the generator never kills the last live host — the retry budget,
// not resource exhaustion, is what the harness stresses. Two runs with
// one seed therefore inject the same faults at the same offsets, which
// is what lets the chaos scenario compare recovery counts across runs.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Kind enumerates injectable fault event types.
type Kind int

// Fault kinds. The Ckpt* kinds arm one-shot faults on the scenario's
// FaultStore; MetricDelay pauses one host's HC metric push loop.
const (
	KillPE Kind = iota + 1
	KillHost
	ReviveHost
	CkptFail
	CkptTear
	CkptDrop
	CkptLatency
	MetricDelay
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KillPE:
		return "kill-pe"
	case KillHost:
		return "kill-host"
	case ReviveHost:
		return "revive-host"
	case CkptFail:
		return "ckpt-fail"
	case CkptTear:
		return "ckpt-tear"
	case CkptDrop:
		return "ckpt-drop"
	case CkptLatency:
		return "ckpt-latency"
	case MetricDelay:
		return "metric-delay"
	default:
		return "unknown"
	}
}

// AllKinds lists every fault kind in declaration order.
func AllKinds() []Kind {
	return []Kind{KillPE, KillHost, ReviveHost, CkptFail, CkptTear, CkptDrop, CkptLatency, MetricDelay}
}

// Event is one scheduled fault.
type Event struct {
	// Offset is the event's fire time relative to the run start.
	Offset time.Duration
	// Kind selects the fault.
	Kind Kind
	// Target is the fault's subject: for KillPE an index into the
	// deterministically ordered PE list (resolved modulo its length at
	// fire time); for KillHost/ReviveHost/MetricDelay an index into the
	// sorted host list, resolved at generation time against the
	// simulated host state. Unused for store faults.
	Target int
	// Amount parameterises CkptLatency and MetricDelay.
	Amount time.Duration
}

// String renders the event for fingerprints and logs.
func (e Event) String() string {
	s := fmt.Sprintf("+%s %s", e.Offset, e.Kind)
	switch e.Kind {
	case KillPE, KillHost, ReviveHost, MetricDelay:
		s += fmt.Sprintf(" #%d", e.Target)
	}
	if e.Amount > 0 {
		s += fmt.Sprintf(" %s", e.Amount)
	}
	return s
}

// Schedule is a seeded, ordered fault plan.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Fingerprint returns a short stable hash of the schedule — identical
// seeds and options yield identical fingerprints, which the determinism
// checks compare across runs.
func (s Schedule) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d;", s.Seed)
	for _, e := range s.Events {
		fmt.Fprintf(h, "%s;", e)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// GenOptions parameterises schedule generation.
type GenOptions struct {
	// Duration is the injection window; events spread across it in
	// order, one per equal slot. Default 1s.
	Duration time.Duration
	// Count is the number of events. Default 10.
	Count int
	// Hosts is the number of cluster hosts (host-targeted events index
	// into the name-sorted host list). 0 disables host faults.
	Hosts int
	// PEs is the number of PE slots kill targets index over. 0 disables
	// PE kills.
	PEs int
	// Kinds restricts the generated kinds; nil means AllKinds pruned to
	// what Hosts/PEs/Store allow.
	Kinds []Kind
	// Store reports whether a fault-wrapping checkpoint store is
	// attached; false prunes the Ckpt* kinds.
	Store bool
}

// minUpHosts is the floor of simulated live hosts KillHost respects:
// the generator re-targets rather than stranding every PE with no host
// to restart onto.
const minUpHosts = 1

// Generate builds a deterministic schedule from a seed. The same seed
// and options always produce the same schedule.
func Generate(seed int64, opts GenOptions) Schedule {
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	if opts.Count <= 0 {
		opts.Count = 10
	}
	kinds := opts.Kinds
	if kinds == nil {
		kinds = AllKinds()
	}
	var usable []Kind
	for _, k := range kinds {
		switch k {
		case KillPE:
			if opts.PEs > 0 {
				usable = append(usable, k)
			}
		case KillHost, ReviveHost, MetricDelay:
			if opts.Hosts > 0 {
				usable = append(usable, k)
			}
		case CkptFail, CkptTear, CkptDrop, CkptLatency:
			if opts.Store {
				usable = append(usable, k)
			}
		}
	}
	s := Schedule{Seed: seed}
	if len(usable) == 0 {
		return s
	}

	rng := rand.New(rand.NewSource(seed))
	hostUp := make([]bool, opts.Hosts)
	for i := range hostUp {
		hostUp[i] = true
	}
	upCount := opts.Hosts
	pick := func(pred func(int) bool) (int, bool) {
		var cand []int
		for i := range hostUp {
			if pred(i) {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			return 0, false
		}
		return cand[rng.Intn(len(cand))], true
	}

	slot := opts.Duration / time.Duration(opts.Count)
	if slot <= 0 {
		slot = time.Millisecond
	}
	for i := 0; i < opts.Count; i++ {
		ev := Event{Offset: time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot)))}
		ev.Kind = usable[rng.Intn(len(usable))]
		// Host kinds depend on simulated host state; when the state
		// disallows the drawn kind, degrade to a kind that is always
		// valid rather than skipping the slot, keeping Count exact.
		switch ev.Kind {
		case KillHost:
			if upCount <= minUpHosts {
				ev.Kind = fallbackKind(usable)
			} else if t, ok := pick(func(i int) bool { return hostUp[i] }); ok {
				ev.Target = t
				hostUp[t] = false
				upCount--
			}
		case ReviveHost:
			if t, ok := pick(func(i int) bool { return !hostUp[i] }); ok {
				ev.Target = t
				hostUp[t] = true
				upCount++
			} else {
				ev.Kind = fallbackKind(usable)
			}
		case MetricDelay:
			if t, ok := pick(func(i int) bool { return hostUp[i] }); ok {
				ev.Target = t
			} else {
				ev.Kind = fallbackKind(usable)
			}
		}
		switch ev.Kind {
		case KillPE:
			ev.Target = rng.Intn(opts.PEs)
		case CkptLatency, MetricDelay:
			ev.Amount = time.Duration(10+rng.Int63n(50)) * time.Millisecond
		}
		s.Events = append(s.Events, ev)
	}
	// Close the loop: revive every host the schedule left down, so the
	// post-run recovery sweep starts from a live cluster.
	for i, up := range hostUp {
		if !up {
			s.Events = append(s.Events, Event{
				Offset: opts.Duration + time.Duration(i+1)*slot/2,
				Kind:   ReviveHost,
				Target: i,
			})
		}
	}
	return s
}

// fallbackKind returns the first always-applicable kind in usable,
// preferring PE kills, then store faults.
func fallbackKind(usable []Kind) Kind {
	for _, k := range usable {
		if k == KillPE {
			return k
		}
	}
	for _, k := range usable {
		switch k {
		case CkptFail, CkptTear, CkptDrop, CkptLatency:
			return k
		}
	}
	return usable[0]
}
