package exp

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"streamorca/internal/adl"
	"streamorca/internal/chaos"
	"streamorca/internal/ckpt"
	"streamorca/internal/core"
	"streamorca/internal/ids"
	"streamorca/internal/load"
	"streamorca/internal/opapi"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/sam"
	"streamorca/internal/tuple"
	"streamorca/internal/wait"
	"streamorca/internal/workload"
)

// stretch scales a real-time period k-fold under the race detector: the
// instrumented dataplane cannot sustain the normal tick rates.
func stretch(d time.Duration, k int) time.Duration {
	if wait.Race {
		return d * time.Duration(k)
	}
	return d
}

// ms renders a duration as fractional milliseconds, the unit every
// report and printed line uses.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// storeKind selects a rig's checkpoint store.
type storeKind int

const (
	noStore  storeKind = iota // no checkpointing: restarted PEs come back empty
	memStore                  // memory, or the filesystem when the spec names a directory
	fsStore                   // the filesystem: the spec's directory, or a temp dir removed on close
)

// rigSpec describes the platform a scenario runs on and the adaptation
// routine attached to it.
type rigSpec struct {
	// name prefixes the rig's errors and names the routine service.
	name  string
	hosts int
	store storeKind
	dir   string
	// metrics is both the HC push period and the orchestrator's pull
	// interval; 0 disables both, for scenarios that step the metric
	// path themselves with pull so every round sees fresh values.
	metrics time.Duration
	// ckptEvery is the per-PE automatic snapshot period (0 = on demand).
	ckptEvery time.Duration
	// retry enables SAM's bounded-retry actuations, jittered from seed.
	retry bool
	seed  int64
	// routine is the adaptation routine; nil boots the platform without
	// an orchestrator.
	routine core.Routine
	// app is registered with the service before it starts; prepare, run
	// at the same point, registers whatever else the routine needs
	// (further applications, dependency configurations, objects of the
	// instance's set).
	app     *adl.Application
	prepare func(*rig) error
}

// rig is one booted platform instance plus routine service; every
// scenario runs on one and closes it when done.
type rig struct {
	name  string
	inst  *platform.Instance
	svc   *core.Service
	store *ckpt.FaultStore
	tmp   string
}

// boot brings up store → platform → routine service → registered
// applications → started service, in that order, from one spec.
func boot(spec rigSpec) (r *rig, err error) {
	r = &rig{name: spec.name}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	opts := platform.Options{MetricsInterval: cmp.Or(spec.metrics, time.Hour), CheckpointInterval: spec.ckptEvery}
	for i := 1; i <= spec.hosts; i++ {
		opts.Hosts = append(opts.Hosts, platform.HostSpec{Name: fmt.Sprintf("h%d", i)})
	}
	if spec.store != noStore {
		var inner ckpt.Store = ckpt.NewMemStore()
		dir := spec.dir
		if dir == "" && spec.store == fsStore {
			if dir, err = os.MkdirTemp("", "orca-ckpt-*"); err != nil {
				return
			}
			r.tmp = dir
		}
		if dir != "" {
			if inner, err = ckpt.NewFSStore(dir); err != nil {
				return
			}
		}
		// Every store sits under the fault wrapper: un-armed it is
		// transparent, and chaos schedules arm it.
		r.store = ckpt.NewFaultStore(inner, nil)
		opts.Checkpoint = r.store
	}
	if spec.retry {
		opts.Retry = sam.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			JitterSeed:  spec.seed,
		}
	}
	if r.inst, err = platform.NewInstance(opts); err != nil {
		return
	}
	if spec.routine == nil {
		return
	}
	r.svc, err = core.NewRoutineService(core.Config{
		Name: spec.name + "Orca", SAM: r.inst.SAM, SRM: r.inst.SRM,
		PullInterval: opts.MetricsInterval,
	}, spec.routine)
	if err != nil {
		return
	}
	if spec.app != nil {
		if err = r.svc.RegisterApplication(spec.app); err != nil {
			return
		}
	}
	if spec.prepare != nil {
		if err = spec.prepare(r); err != nil {
			return
		}
	}
	err = r.svc.Start()
	return
}

func (r *rig) close() {
	if r.svc != nil {
		r.svc.Stop()
	}
	if r.inst != nil {
		r.inst.Close()
	}
	if r.tmp != "" {
		os.RemoveAll(r.tmp)
	}
}

// pull steps the metric path once: HCs push to SRM, the service pulls.
func (r *rig) pull() {
	r.inst.FlushMetrics()
	r.svc.PullMetricsNow()
}

// up returns the one job the rig's routine submitted, once every PE of
// it runs.
func (r *rig) up(timeout time.Duration) (ids.JobID, error) {
	jobs := r.svc.ManagedJobs()
	if len(jobs) != 1 {
		return ids.InvalidJob, fmt.Errorf("%s: expected 1 managed job, got %d", r.name, len(jobs))
	}
	if job := jobs[0].Job; r.awaitRunning(job, timeout) {
		return job, nil
	}
	return ids.InvalidJob, fmt.Errorf("%s: pipeline never came up (down: %v)", r.name, r.down(jobs[0].Job))
}

// pe returns the PE hosting the named operator of a job.
func (r *rig) pe(job ids.JobID, op string) (ids.PEID, error) {
	info, _ := r.inst.SAM.Job(job)
	for _, p := range info.PEs {
		if slices.Contains(p.Operators, op) {
			return p.ID, nil
		}
	}
	return ids.InvalidPE, fmt.Errorf("%s: job %s has no PE hosting operator %q", r.name, job, op)
}

// counter reads one PE-level metric straight off the container (0 when
// the PE has none).
func (r *rig) counter(pe ids.PEID, name string) int64 {
	c, ok := r.inst.Cluster.PEContainer(pe)
	if !ok {
		return 0
	}
	return c.PEMetrics().Counter(name).Value()
}

// down lists the PEs that are not running: of one job, or of every job
// when job is ids.InvalidJob.
func (r *rig) down(job ids.JobID) []ids.PEID {
	var out []ids.PEID
	for _, j := range r.inst.SAM.Jobs() {
		if job != ids.InvalidJob && j.ID != job {
			continue
		}
		for _, p := range j.PEs {
			if p.State != "running" {
				out = append(out, p.ID)
			}
		}
	}
	return out
}

// awaitRunning waits until the job exists with every PE running.
func (r *rig) awaitRunning(job ids.JobID, timeout time.Duration) bool {
	return wait.Until(timeout, time.Millisecond, func() bool {
		_, ok := r.inst.SAM.Job(job)
		return ok && len(r.down(job)) == 0
	})
}

// sweep is the recovery pass after fault injection: disarm the store,
// revive every downed host, and keep restarting whatever is not running
// until everything is or the timeout passes. It returns the PEs lost
// forever.
func (r *rig) sweep(timeout time.Duration) ([]ids.PEID, error) {
	if r.store != nil {
		r.store.Reset()
	}
	for _, h := range r.inst.Cluster.Hosts() {
		if !h.Up {
			if err := r.inst.Cluster.ReviveHost(h.Name); err != nil {
				return nil, fmt.Errorf("%s: revive %s: %w", r.name, h.Name, err)
			}
		}
	}
	wait.Until(timeout, 5*time.Millisecond, func() bool {
		down := r.down(ids.InvalidJob)
		for _, id := range down {
			_ = r.svc.RestartPE(id) //orcalint:ignore actuationcheck the sweep retries until its deadline; stragglers are returned as lost forever
		}
		return len(down) == 0
	})
	return r.down(ids.InvalidJob), nil
}

// shake injects a seeded schedule of n faults (restricted to kinds when
// non-nil) spread over window into a job of pes PEs, then sweeps. It
// returns the schedule's fingerprint and what the runner applied; a PE
// the sweep cannot bring back is an error.
func (r *rig) shake(seed int64, n int, window time.Duration, kinds []chaos.Kind, pes int, sweepFor time.Duration) (string, *chaos.Report, error) {
	schedule := chaos.Generate(seed, chaos.GenOptions{
		Duration: window,
		Count:    n,
		Hosts:    len(r.inst.Cluster.Hosts()),
		PEs:      pes,
		Kinds:    kinds,
		Store:    true,
	})
	runner := &chaos.Runner{Cluster: r.inst.Cluster, SAM: r.inst.SAM, Store: r.store}
	applied := runner.Run(schedule)
	lost, err := r.sweep(sweepFor)
	if err == nil && len(lost) > 0 {
		err = fmt.Errorf("%s: %d PEs lost forever after the recovery sweep: %v", r.name, len(lost), lost)
	}
	return schedule.Fingerprint(), applied, err
}

// lastCount is the "count" attribute — the window fill — of the newest
// tuple in a collection of Aggregate output; -1 before any output.
func lastCount(coll *ops.Collection) int64 {
	tp, ok := coll.Last()
	if !ok {
		return -1
	}
	return tp.Int("count")
}

// drain waits for a closed stream to empty: until the meter has seen
// every offered tuple, or has stayed quiet for four beats (the rest was
// dropped in flight). It returns the instant of the last delivery.
func drain(meter *load.Meter, offered int64, beat, timeout time.Duration) time.Time {
	deadline := time.Now().Add(timeout)
	lastN, lastChange := meter.Delivered(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(beat / 2)
		if n := meter.Delivered(); n != lastN {
			lastN, lastChange = n, time.Now()
			continue
		}
		if lastN >= offered || time.Since(lastChange) > 4*beat {
			break
		}
	}
	return lastChange
}

// eventSchema is the keyed user event the load and fission pipelines
// carry; ts is stamped by the driver with the intended send instant.
var eventSchema = tuple.MustSchema(
	tuple.Attribute{Name: "user", Type: tuple.String},
	tuple.Attribute{Name: "seq", Type: tuple.Int},
	tuple.Attribute{Name: "score", Type: tuple.Float},
	tuple.Attribute{Name: "ts", Type: tuple.Timestamp},
)

// eventMaker returns the seeded event generator for a Zipf key space,
// and the key generator's analytic top-1% traffic share.
func eventMaker(seed int64, keys int, skew float64) (func(i int64) tuple.Tuple, float64) {
	gen := workload.NewKeyGen(workload.KeyConfig{Seed: seed, N: keys, Skew: skew})
	payload := rand.New(rand.NewSource(seed + 1))
	user, seq, score := eventSchema.MustRef("user"), eventSchema.MustRef("seq"), eventSchema.MustRef("score")
	return func(i int64) tuple.Tuple {
		t := tuple.New(eventSchema)
		user.SetStr(t, gen.Next())
		seq.SetInt(t, i)
		score.SetFloat(t, payload.Float64()*100)
		return t
	}, gen.TopShare(0.01)
}

// offerSpec is one offered load: seeded Zipf-keyed events into the
// LoadSource behind injID, metered by the LatencySink behind meterID,
// both of the object set objs.
// The load is the Params', defaults already resolved by the caller: Keys
// and Skew shape the key space, and Rate tuples/sec are offered open
// loop for Duration — or, with Users > 0, that many closed-loop users
// each pause Think between sends.
type offerSpec struct {
	Params
	objs           *opapi.Objects
	injID, meterID string
}

// loadBeat is the HC push period (and orchestrator pull interval) of the
// platforms a load is offered into; the gauge sampler and the drain
// after an offer keep the same cadence.
var loadBeat = stretch(25*time.Millisecond, 2)

// offering is what an offer did: the driver's stats, the meter that saw
// the deliveries, and the instants of arming and of the last delivery.
type offering struct {
	load.Stats
	meter         *load.Meter
	hotKeyShare   float64
	start, lastAt time.Time
}

// offer makes the spec's events, arms the meter, drives the load to the
// end of its schedule — running meanwhile, if not nil, beside the driver
// — then closes the stream and drains it. The driver is stopped when
// budget expires; an offer cut short that way is an error, as is a
// failed meanwhile (reported once the driver has finished).
func offer(spec offerSpec, budget time.Duration, meanwhile func(*load.Meter) error) (*offering, error) {
	mk, share := eventMaker(spec.Seed, spec.Keys, spec.Skew)
	inj := load.InjectorIn(spec.objs, spec.injID)
	o := &offering{meter: load.MeterIn(spec.objs, spec.meterID), hotKeyShare: share, start: time.Now()}
	o.meter.Arm(o.start, 200*time.Millisecond)

	stop := make(chan struct{})
	expiry := time.AfterFunc(budget, func() { close(stop) })
	var driveErr error
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		if spec.Users > 0 {
			o.Stats, driveErr = load.RunClosedLoop(load.ClosedLoopConfig{
				Injector: inj, Make: mk, TsAttr: "ts",
				Users: spec.Users, Think: spec.Think, Duration: spec.Duration, Stop: stop,
			})
		} else {
			o.Stats, driveErr = load.RunOpenLoop(load.OpenLoopConfig{
				Injector: inj, Make: mk, TsAttr: "ts",
				Rate: spec.Rate, Duration: spec.Duration, Stop: stop,
			})
		}
	}()
	var err error
	if meanwhile != nil {
		err = meanwhile(o.meter)
	}
	<-driven
	inj.Close()
	if err = errors.Join(err, driveErr); err != nil {
		return nil, err
	}
	if !expiry.Stop() {
		return nil, fmt.Errorf("offer: budget %v expired waiting for the pipeline to take the load: %d tuples offered, %d never sent",
			budget, o.Offered, o.Missed)
	}
	o.lastAt = drain(o.meter, o.Offered, loadBeat, budget/4)
	return o, nil
}

// sample runs fn every interval on one goroutine until halt is called.
// halt returns once the goroutine has exited: fn never runs afterwards,
// and whatever it accumulated can be read without further locking.
func sample(interval time.Duration, fn func()) (halt func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		<-done
	}
}
