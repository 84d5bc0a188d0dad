package exp

import (
	"fmt"
	"slices"
	"time"

	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/ops"
	"streamorca/internal/policies"
	"streamorca/internal/sam"
)

// reaction quantifies §3's failure-reaction claim: orchestrated recovery
// costs the platform's own detection plus one extra hop (SAM → ORCA
// service) plus whatever the user handler does. It reports the median
// kill→restarted latency of three recovery paths: SAM's own restart
// flag, a Restart routine, and a Restart routine whose pre-restart hook
// does handlerDelay of user work.
func reaction(p Params) (*Outcome, error) { return runReaction(7, p.budget(30*time.Second)) }

func runReaction(trials int, budget time.Duration) (*Outcome, error) {
	const handlerDelay = 5 * time.Millisecond
	wait := budget / time.Duration(4*trials)

	// measure kills the sink PE `trials` times and returns the median
	// latency to the restarted notification. The notifier timestamps
	// restart completion itself, so no polling granularity pollutes the
	// µs-scale latencies. autoRestart leaves recovery to SAM's restart
	// flag (no orchestrator); otherwise a Restart routine with `delay` of
	// handler work recovers.
	measure := func(label string, autoRestart bool, delay time.Duration) (time.Duration, error) {
		b := compiler.NewApp("Reaction")
		src := b.AddOperator("src", ops.KindBeacon).Out(seqSchema).
			Param("count", "0").Param("period", "500us")
		sink := b.AddOperator("sink", ops.KindCollectSink).In(seqSchema).
			Param("collectorId", uniq("reaction")).Param("limit", "10")
		b.Connect(src, 0, sink, 0)
		app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
		if err != nil {
			return 0, err
		}
		restarted := make(chan time.Time, trials)
		spec := rigSpec{name: "reaction", hosts: 1, app: app}
		if autoRestart {
			for i := range app.PEs {
				app.PEs[i].Restart = true
			}
		} else {
			spec.routine = &policies.Restart{
				App: app.Name, Submit: true, Strict: true,
				Before:    func(*core.PEFailureContext) { time.Sleep(delay) },
				Restarted: func(*core.PEFailureContext) { restarted <- time.Now() },
			}
		}
		r, err := boot(spec)
		if err != nil {
			return 0, err
		}
		defer r.close()
		var job ids.JobID
		if autoRestart {
			// SAM notifies the owner's listener after performing the
			// auto-restart inside its failure handler.
			r.inst.SAM.AddListener("probe", sam.Listener{
				PEFailed: func(sam.PEFailure) { restarted <- time.Now() },
			})
			job, err = r.inst.SAM.SubmitJob(app, sam.SubmitOptions{Owner: "probe"})
		} else {
			job, err = r.up(wait)
		}
		if err != nil {
			return 0, err
		}
		pe, err := r.pe(job, "sink")
		if err != nil {
			return 0, err
		}
		var ds []time.Duration
		for i := 1; i <= trials; i++ {
			start := time.Now()
			if err := r.inst.SAM.KillPE(pe, "reaction"); err != nil {
				return 0, err
			}
			select {
			case at := <-restarted:
				ds = append(ds, at.Sub(start))
			case <-time.After(wait):
				return 0, fmt.Errorf("reaction: %s trial %d: no restart notification within %v", label, i, wait)
			}
			if !r.awaitRunning(job, wait) {
				return 0, fmt.Errorf("reaction: %s trial %d: PE %s not running %v after its restart", label, i, pe, wait)
			}
		}
		slices.Sort(ds)
		return ds[len(ds)/2], nil // the median
	}

	auto, err := measure("auto-restart", true, 0)
	if err != nil {
		return nil, err
	}
	orca, err := measure("orchestrated", false, 0)
	if err != nil {
		return nil, err
	}
	slow, err := measure("orchestrated+handler", false, handlerDelay)
	if err != nil {
		return nil, err
	}
	// The slow handler must cost at least most of its injected delay over
	// the no-op orchestrated path.
	if slow < orca+handlerDelay/2 {
		return nil, fmt.Errorf("reaction: handler delay not reflected: noop=%v slow=%v (injected %v)", orca, slow, handlerDelay)
	}
	// Orchestrated recovery should be the same order of magnitude as
	// auto-restart (one extra in-process hop), not 10x.
	if orca > auto*10+handlerDelay {
		return nil, fmt.Errorf("reaction: orchestrated restart implausibly slow: auto=%v orca=%v", auto, orca)
	}
	out := &Outcome{OK: "reaction OK: orchestrated restart costs one in-process hop plus the handler's own work"}
	out.printf("trials: %d (medians)", trials)
	out.printf("platform auto-restart:        %v", auto)
	out.printf("orchestrated restart (no-op): %v", orca)
	out.printf("orchestrated + %v handler:  %v", handlerDelay, slow)
	out.Metrics = map[string]float64{
		"trials":               float64(trials),
		"auto_restart_ms":      ms(auto),
		"orca_restart_ms":      ms(orca),
		"orca_slow_handler_ms": ms(slow),
		"handler_delay_ms":     ms(handlerDelay),
	}
	return out, nil
}
