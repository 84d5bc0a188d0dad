package exp

import (
	"fmt"
	"time"

	"streamorca/internal/compiler"
	"streamorca/internal/core"
	"streamorca/internal/ops"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
)

var seqSchema = tuple.MustSchema(tuple.Attribute{Name: "seq", Type: tuple.Int})

// overhead measures §3's hot-path claim — orchestrator metric delivery
// never touches the tuple path: the ORCA service pulls SRM, and HC→SRM
// pushes happen regardless — as pipeline throughput with and without an
// orchestrator aggressively pulling every operator metric.
func overhead(p Params) (*Outcome, error) {
	return runOverhead(500_000, p.budget(30*time.Second))
}

func runOverhead(n int64, budget time.Duration) (*Outcome, error) {
	// runOnce pushes n tuples through three PEs and returns tuples/sec,
	// plus the metric events the orchestrator consumed meanwhile.
	runOnce := func(withOrca bool) (float64, uint64, error) {
		collector := uniq("overhead")
		b := compiler.NewApp("Overhead")
		src := b.AddOperator("src", ops.KindBeacon).Out(seqSchema).Param("count", fmt.Sprint(n))
		fn := b.AddOperator("fn", ops.KindFunctor).In(seqSchema).Out(seqSchema).Param("addInt", "seq:1")
		sink := b.AddOperator("sink", ops.KindCollectSink).In(seqSchema).
			Param("collectorId", collector).Param("limit", "1")
		b.Connect(src, 0, fn, 0)
		b.Connect(fn, 0, sink, 0)
		app, err := b.Build(compiler.Options{Fusion: compiler.FuseNone})
		if err != nil {
			return 0, 0, err
		}
		spec := rigSpec{name: "overhead", hosts: 1, app: app}
		if withOrca {
			// Pure delivery cost: a broad unfiltered subscription with a
			// no-op handler.
			spec.routine = core.NewRoutine("observe", func(sc *core.SetupContext) error {
				return sc.Subscribe(core.OnOperatorMetric(core.NewOperatorMetricScope("all"),
					func(*core.OperatorMetricContext, *core.Actions) error { return nil }))
			})
		}
		r, err := boot(spec)
		if err != nil {
			return 0, 0, err
		}
		defer r.close()

		start := time.Now()
		if withOrca {
			defer sample(2*time.Millisecond, r.pull)()
			_, err = r.svc.SubmitApplication(app.Name, nil)
		} else {
			_, err = r.inst.SAM.SubmitJob(app, sam.SubmitOptions{})
		}
		if err != nil {
			return 0, 0, err
		}
		if !waitUntil(budget/2, 200*time.Microsecond, func() bool { return ops.Collector(collector).Finals() == 1 }) {
			return 0, 0, fmt.Errorf("overhead: %d-tuple pipeline (orchestrator %v) did not finish within %v",
				n, withOrca, budget/2)
		}
		tps := float64(n) / time.Since(start).Seconds()
		if !withOrca {
			return tps, 0, nil
		}
		return tps, r.svc.Stats().MatchedEvents, nil
	}

	baseline, _, err := runOnce(false)
	if err != nil {
		return nil, err
	}
	withOrca, events, err := runOnce(true)
	if err != nil {
		return nil, err
	}
	if events == 0 {
		return nil, fmt.Errorf("overhead: orchestrator consumed no metric events; measurement invalid")
	}
	// Typically a few percent; the bound is generous to absorb noise.
	if withOrca < baseline/2 {
		return nil, fmt.Errorf("overhead: orchestrator halved throughput: %.0f -> %.0f tps", baseline, withOrca)
	}
	percent := (baseline - withOrca) / baseline * 100 // positive = orchestrator made it slower
	out := &Outcome{OK: "overhead OK: an orchestrator pulling every metric stays off the tuple path"}
	out.printf("tuples: %d", n)
	out.printf("baseline:   %.0f tuples/s", baseline)
	out.printf("with orca:  %.0f tuples/s (%d metric events consumed)", withOrca, events)
	out.printf("overhead:   %.1f%%", percent)
	out.Metrics = map[string]float64{
		"tuples":           float64(n),
		"baseline_tps":     baseline,
		"with_orca_tps":    withOrca,
		"overhead_percent": percent,
		"metric_events":    float64(events),
	}
	return out, nil
}
