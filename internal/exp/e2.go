package exp

import (
	"fmt"
	"time"

	"streamorca/internal/apps"
	"streamorca/internal/ids"
	"streamorca/internal/ops"
	"streamorca/internal/policies"
	"streamorca/internal/wait"
)

// The Trend Calculator scenarios (failover, staleness-failover) compress
// the paper's 600-second sliding window to 600 ms over 1 ms ticks — a
// tick plays the role of one second of market data, and the window
// holds the same 600 samples. Under the race detector the instrumented
// source cannot sustain 1 ms ticks, so window and tick stretch together.
var (
	trendWindow = stretch(600*time.Millisecond, 4)
	trendTick   = stretch(time.Millisecond, 4)
)

// trendRig is three Trend Calculator replicas in exclusive host pools
// under the §5.2 Failover routine, each writing to its own collector —
// the setup the failover and staleness-failover scenarios share.
type trendRig struct {
	*rig
	policy *policies.Failover
	jobs   []ids.JobID
	// agg is each replica's stateful aggregation PE.
	agg []ids.PEID
}

func (t *trendRig) coll(replica int) *ops.Collection {
	return ops.Collector(t.inst.SAM.Objects(), apps.ReplicaCollector(t.name, replica))
}

// lastCount is a replica's most recent window fill.
func (t *trendRig) lastCount(replica int) int64 { return lastCount(t.coll(replica)) }

// bootTrend boots the replicas on spec's platform and waits until every
// replica's window is at least 80% full.
func bootTrend(spec rigSpec, seed int64, maxAge, budget time.Duration) (*trendRig, error) {
	app, err := apps.TrendApp(apps.TrendConfig{
		Name: "TrendCalculator", Symbols: "IBM", Seed: seed,
		Count: 0, Period: trendTick, Window: trendWindow,
	})
	if err != nil {
		return nil, err
	}
	t := &trendRig{}
	t.policy = &policies.Failover{
		App: "TrendCalculator", Replicas: 3, MaxSnapshotAge: maxAge,
		SubmitParams: func(i int) map[string]string {
			return map[string]string{"collector": apps.ReplicaCollector(spec.name, i)}
		},
	}
	spec.hosts, spec.routine, spec.app = 4, t.policy, app
	if t.rig, err = boot(spec); err != nil {
		return nil, err
	}
	t.jobs = t.policy.Jobs() // all submitted by the routine's Setup, which boot ran
	for _, job := range t.jobs {
		pe, err := t.pe(job, apps.TrendAggregateOp)
		if err != nil {
			t.close()
			return nil, err
		}
		t.agg = append(t.agg, pe)
	}
	full := int64(trendWindow / trendTick)
	warm := wait.Until(budget/2, time.Millisecond, func() bool {
		for i := 0; i < 3; i++ {
			if t.lastCount(i) < full*8/10 {
				return false
			}
		}
		return true
	})
	if !warm {
		t.close()
		return nil, fmt.Errorf("%s: windows never filled (counts %d %d %d, want ~%d)",
			t.name, t.lastCount(0), t.lastCount(1), t.lastCount(2), full)
	}
	return t, nil
}

// failover is experiment E2 (Figure 9), replica failover on PE failure
// (§5.2): three Trend Calculator replicas in exclusive host pools, kill
// the active replica's stateful aggregation PE, observe the promotion,
// the failed replica's output gap, and its slow window refill. It runs
// without a checkpoint store — no snapshot ages exist, so the
// staleness-ranked policy falls back to its uptime tie-break and
// promotes the oldest backup, exactly the paper's Figure 9 behaviour
// (the staleness-failover scenario covers the checkpoint-aware
// promotion). The outcome's series is Figure 9: per sample, the active
// replica and each replica's latest window fill (-1 before any output)
// and cumulative output count.
func failover(p Params) (*Outcome, error) {
	// sampleEvery is the output sampling cadence of the result series.
	sampleEvery, budget := stretch(25*time.Millisecond, 4), p.budget(30*time.Second)
	t, err := bootTrend(rigSpec{name: "failover"}, 7, 0, budget)
	if err != nil {
		return nil, err
	}
	defer t.close()
	policy := t.policy

	// Exclusive pools must have separated the replicas' hosts.
	var hosts []string
	hostSet := map[string]bool{}
	for _, pe := range t.agg {
		host, _ := t.svc.HostOfPE(pe)
		hosts = append(hosts, host)
		hostSet[host] = true
	}
	if len(hostSet) != 3 {
		return nil, fmt.Errorf("failover: replicas share hosts: %v", hosts)
	}

	killed := policy.ReplicaIndex(policy.Active())
	out := &Outcome{
		CSV: []string{"elapsed_ms,active_replica,win_r0,win_r1,win_r2,out_r0,out_r1,out_r2"},
		OK:  "failover OK: a backup was promoted and the failed replica refilled its window from empty",
	}
	start := time.Now()
	record := func() {
		out.CSV = append(out.CSV, fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%d",
			time.Since(start).Milliseconds(), policy.ReplicaIndex(policy.Active()),
			t.lastCount(0), t.lastCount(1), t.lastCount(2),
			t.coll(0).Len(), t.coll(1).Len(), t.coll(2).Len()))
	}
	record()
	if err := t.svc.KillPE(t.agg[killed], "injected failure of active replica"); err != nil {
		return nil, err
	}

	// Failover latency: until the policy promotes a backup.
	if !wait.Until(budget/3, 100*time.Microsecond, func() bool { return policy.Failovers() >= 1 }) {
		return nil, fmt.Errorf("failover: failover never happened")
	}
	failoverLatency := time.Since(start)
	promoted := policy.ReplicaIndex(policy.Active())

	// Output gap: until the failed replica produces output again. Tuples
	// in flight to its sink when the PE died can land after the kill, so
	// output counts only once the routine has restarted the PE.
	if !wait.Until(budget/3, 100*time.Microsecond, func() bool { return policy.Restarts() >= 1 }) {
		return nil, fmt.Errorf("failover: failed replica never restarted")
	}
	killedLen := t.coll(killed).Len()
	if !wait.Until(budget/3, 100*time.Microsecond, func() bool { return t.coll(killed).Len() > killedLen }) {
		return nil, fmt.Errorf("failover: failed replica never resumed output")
	}
	outputGap := time.Since(start)

	// Refill: sample the series until the failed replica's window count
	// is back to >=95% of a healthy replica's.
	halt := sample(sampleEvery, record)
	defer halt()
	refilled := wait.Until(budget/2, time.Millisecond, func() bool {
		kc, hc := t.lastCount(killed), t.lastCount(promoted)
		return kc >= 0 && hc > 0 && kc*100 >= hc*95
	})
	halt()
	if !refilled {
		return nil, fmt.Errorf("failover: window never refilled")
	}
	refill := time.Since(start)
	record()

	out.printf("replica hosts: %v", hosts)
	out.printf("active %d -> %d; failover %v; output gap %v; window refill %v",
		killed, promoted, failoverLatency, outputGap, refill)
	out.Metrics = map[string]float64{
		"killed_replica":   float64(killed),
		"promoted_replica": float64(promoted),
		"failovers":        float64(policy.Failovers()),
		"restarts":         float64(policy.Restarts()),
		"failover_ms":      ms(failoverLatency),
		"output_gap_ms":    ms(outputGap),
		"refill_ms":        ms(refill),
	}
	return out, nil
}
