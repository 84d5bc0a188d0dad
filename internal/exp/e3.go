package exp

import (
	"fmt"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/apps"
	"streamorca/internal/core"
	"streamorca/internal/policies"
)

// composition is experiment E3 (Figure 10), on-demand dynamic
// application composition (§5.3): C2 query applications are started
// through the dependency manager (bringing their C1 readers up
// automatically); profile-discovery metrics spawn C3 segmentation jobs
// per attribute; final punctuations contract the graph again. The
// outcome's series is Figure 10: the running-job count over time.
func composition(p Params) (*Outcome, error) {
	const (
		profilePeriod = 100 * time.Microsecond // each C1 reader's emission period
		// threshold is the new-profile count that spawns a C3 job
		// (paper example: 1500).
		threshold = 1500
		pullEvery = 4 * time.Millisecond
	)
	budget := p.budget(30 * time.Second)
	const storeID = "e3-profiles"
	social := apps.SocialConfig{StoreID: storeID, Seed: 11, Period: profilePeriod}
	c1 := map[string]string{"TwitterStreamReader": "twitter", "MySpaceStreamReader": "myspace"}
	c2Names := []string{"TwitterQuery", "BlogQuery", "FacebookQuery"}

	policy := &policies.Composition{
		C2Configs: []string{"cfg-TwitterQuery", "cfg-BlogQuery", "cfg-FacebookQuery"},
		C3App:     "AttributeAggregator",
		C3Collector: func(attr string) string {
			return "e3-seg-" + attr
		},
		Threshold: threshold,
	}
	// Applications and dependency configurations register before start.
	register := func(r *rig) error {
		svc := r.svc
		add := func(app *adl.Application, err error, cfg core.AppConfig) error {
			if err == nil {
				err = svc.RegisterApplication(app)
			}
			if err == nil {
				err = svc.RegisterAppConfig(cfg)
			}
			return err
		}
		for name, source := range c1 {
			app, err := apps.C1App(name, source, social)
			if err := add(app, err, core.AppConfig{
				ID: "cfg-" + name, AppName: name,
				GarbageCollectable: true, GCTimeout: 50 * time.Millisecond,
			}); err != nil {
				return err
			}
		}
		for _, name := range c2Names {
			app, err := apps.C2App(name, social)
			if err := add(app, err, core.AppConfig{ID: "cfg-" + name, AppName: name}); err != nil {
				return err
			}
			// None of the C1 applications build internal state, so all
			// uptime requirements are zero (§5.3).
			for c1name := range c1 {
				if err := svc.RegisterDependency("cfg-"+name, "cfg-"+c1name, 0); err != nil {
					return err
				}
			}
		}
		c3, err := apps.C3App("AttributeAggregator", social)
		if err != nil {
			return err
		}
		return svc.RegisterApplication(c3)
	}
	r, err := boot(rigSpec{name: "composition", hosts: 3, routine: policy, prepare: register})
	if err != nil {
		return nil, err
	}
	defer r.close()

	// The steady state is 2 C1 readers + 3 C2 queries.
	const baseJobs = 5
	jobCount := func() int { return len(r.inst.SAM.Jobs()) }
	if !waitUntil(budget/3, time.Millisecond, func() bool { return jobCount() == baseJobs }) {
		return nil, fmt.Errorf("composition: C1/C2 set never came up (%d jobs)", jobCount())
	}

	out := &Outcome{
		CSV: []string{"elapsed_ms,running_jobs"},
		OK:  "composition OK: the application graph expanded per attribute and contracted to its base",
	}
	start, maxJobs := time.Now(), 0
	halt := sample(pullEvery, func() {
		r.pull()
		n := jobCount()
		out.CSV = append(out.CSV, fmt.Sprintf("%d,%d", time.Since(start).Milliseconds(), n))
		maxJobs = max(maxJobs, n)
	})
	defer halt()
	wantAttrs := []string{"age", "gender", "location"}
	// covers reports whether attrs include every wanted attribute.
	covers := func(attrs []string) bool {
		have := map[string]bool{}
		for _, a := range attrs {
			have[a] = true
		}
		for _, a := range wantAttrs {
			if !have[a] {
				return false
			}
		}
		return true
	}
	// Done when every attribute's C3 job came and went and the graph is
	// back at its base size. The readers keep running, so the policy's
	// next C3 round may grow the graph again at any time: the contraction
	// is judged on what the wait saw when it held, not read afterwards.
	var cancels []string
	final := 0
	waitUntil(budget, pullEvery, func() bool {
		cancels, final = policy.Cancellations(), jobCount()
		return covers(cancels) && final == baseJobs
	})
	// One more beat, so the series records the contraction it waited for.
	time.Sleep(2 * pullEvery)
	halt()
	subs := policy.Submissions()
	profiles := apps.ProfileStoreIn(r.inst.SAM.Objects(), storeID).Len()

	if !covers(subs) {
		return nil, fmt.Errorf("composition: no C3 submission for some attribute of %v (subs %v)", wantAttrs, subs)
	}
	if len(cancels) < 3 {
		return nil, fmt.Errorf("composition: contraction incomplete: cancellations %v", cancels)
	}
	if maxJobs <= baseJobs {
		return nil, fmt.Errorf("composition: graph never expanded (max %d)", maxJobs)
	}
	if final != baseJobs {
		return nil, fmt.Errorf("composition: graph did not contract (final %d)", final)
	}
	out.printf("jobs base=%d max=%d final=%d; C3 submissions %v; cancellations %v",
		baseJobs, maxJobs, final, subs, cancels)
	out.printf("%d profiles stored", profiles)
	out.Metrics = map[string]float64{
		"base_jobs":      baseJobs,
		"max_jobs":       float64(maxJobs),
		"final_jobs":     float64(final),
		"submissions":    float64(len(subs)),
		"cancellations":  float64(len(cancels)),
		"store_profiles": float64(profiles),
	}
	return out, nil
}
