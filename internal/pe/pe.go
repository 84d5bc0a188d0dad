// Package pe implements the processing element: the runtime container
// that executes a fused partition of operators. In System S a PE is an
// operating-system process; here it is a goroutine container with the
// same observable behaviour — bounded input queues, serialised operator
// execution, built-in metrics, final-punctuation propagation, and
// crash-with-state-loss failure semantics (an operator error or panic
// kills the whole container, §2.2/§5.2).
//
// There is one queue type and one delivery path. Every operator with
// inputs owns an inbox (inbox.go) that its consume goroutine drains
// whole; the drained run is cut into chunks of at most maxChunk tuples
// of one port, each handed over as one ProcessBatch call (or unrolled
// into Process calls); Context.Submit coalesces for every operator for
// the length of a chunk, and an operator that holds a run — a source
// draining a buffer, a batch operator's outputs — submits it whole with
// SubmitRun (opapi.SubmitAll): one schema check per new schema pointer,
// one flush, one inbox entry per fused consumer, one call per outlet.
// A port with a lone fused consumer and no outlet hands its buffer of
// emits over as that consumer's batch instead of copying it.
// Config.QueueCap and the queueSize gauge count tuples, so a queued
// 64-tuple frame weighs 64. Batch, GetBatch, PutBatch, ExternalInlet
// and ExternalBatchInlet are thin adapters over that path, kept for the
// transport and the benchmark.
//
// An operator's pending emits, an inbox entry and the run the consume
// loop has in hand are carriers of leased tuple storage: each holds the
// tuple.Blocks of what it carries (holdRun) and drops exactly those
// holds when done; a path that fails forgets them. ARCHITECTURE.md,
// "Tuple storage ownership", has the protocol.
package pe

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/metrics"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
	"streamorca/internal/vclock"
)

// State is the PE lifecycle state.
type State int32

// PE lifecycle states.
const (
	Created State = iota
	Running
	Stopped
	Crashed
)

// String names the state.
func (s State) String() string {
	if s < Created || s > Crashed {
		return "unknown"
	}
	return [...]string{"created", "running", "stopped", "crashed"}[s]
}

// OpSpec describes one operator instance to run inside the PE.
type OpSpec struct {
	Name    string
	Kind    string
	Params  opapi.Params
	Inputs  []*tuple.Schema
	Outputs []*tuple.Schema
}

// Wire is an intra-PE stream connection between two fused operators.
type Wire struct {
	FromOp   string
	FromPort int
	ToOp     string
	ToPort   int
}

// Config assembles a PE.
type Config struct {
	ID       ids.PEID
	Job      ids.JobID
	App      string
	Host     string
	Ops      []OpSpec
	Wires    []Wire
	Clock    vclock.Clock
	Registry *opapi.Registry
	Objects  *opapi.Objects // what opapi.ObjectsOf returns; nil means opapi.DefaultObjects
	QueueCap int            // per-operator input queue capacity, in tuples; default 256
	// Journal records the container's lifecycle and recovery events
	// (kills, crashes, dropped runs, skipped snapshot sections); nil
	// discards them. SAM passes the instance's ring.
	Journal *journal.Ring
	// OnExit is invoked exactly once, from the PE's own goroutine, when
	// the container leaves the Running state. crashed is false for a
	// clean Stop.
	OnExit func(id ids.PEID, crashed bool, reason string)
	// Ckpt configures operator-state checkpointing; the zero value
	// disables it (restarts come back empty, the paper's §5.2 loss
	// semantics).
	Ckpt CkptConfig
}

// CkptConfig wires a PE to a checkpoint store.
type CkptConfig struct {
	// Store persists snapshots; nil disables checkpointing.
	Store ckpt.Store
	// Key identifies this PE's snapshot in the store (SAM keys by job
	// and PE id, which survive restarts).
	Key string
	// Interval is the automatic checkpoint period on the PE clock;
	// 0 means on-demand checkpoints only (PE.Checkpoint).
	Interval time.Duration
	// Restore makes Start look for a snapshot under Key and restore
	// stateful operators from it before processing begins. SAM arms it
	// on the restart path only, so a fresh submission never picks up a
	// stale snapshot.
	Restore bool
}

// Outlet receives the items leaving the PE on a cross-PE or cross-job
// link, a run per call: whatever the port's flush holds, in order. The
// slice is the caller's and is reused after the call returns.
type Outlet func([]Item)

// PE is a running processing element.
type PE struct {
	cfg   Config
	state atomic.Int32

	ops       []*opRuntime
	byName    map[string]*opRuntime
	statefuls []*opRuntime // ops implementing opapi.StatefulOperator

	peMetrics *metrics.Set
	// Hot-path counter cells resolved once at construction: the delivery
	// and submit paths bump these directly instead of going through the
	// Set's name lookup (a map access under RWMutex) per tuple.
	cTuplesIn      *metrics.Counter // PETuplesProcessed
	cTuplesOut     *metrics.Counter // PETuplesSubmitted
	cTuplesDropped *metrics.Counter // PETuplesDropped
	ckptMu         sync.Mutex       // serialises snapshot assembly
	ckptAt         atomic.Int64     // platform-clock unix nanos of the last state anchor; 0 = never

	// Rate-gauge baseline: the counter values and platform-clock instant
	// of the previous metric snapshot, from which the ingest/egress
	// tuples-per-second gauges are derived.
	rateMu     sync.Mutex
	lastRateAt time.Time
	lastIn     int64
	lastOut    int64

	kill     chan struct{} // closed on crash or stop; asks sources to finish
	killOnce sync.Once
	exitOnce sync.Once
	wg       sync.WaitGroup
}

type opRuntime struct {
	pe      *PE
	spec    OpSpec
	op      opapi.Operator
	batchOp opapi.BatchOperator // non-nil when op has the opt-in batch SPI
	in      *inbox
	// viewTs accumulates the current chunk (tuples of input port
	// viewPort) and view wraps it for ProcessBatch without copying
	// storage. owed counts the tuples of the drained run not processed
	// yet: what a failure mid-run loses. Consume goroutine only.
	view     tuple.Batch
	viewTs   []tuple.Tuple
	viewPort int
	owed     int
	// outBuf holds the pending emits, one buffer per output port, until
	// flush forwards them: once per chunk for an operator with inputs,
	// at every Submit or SubmitRun for a source. Operator's own
	// goroutine only.
	outBuf [][]Item
	// okSchema is, per output port, the last submitted schema pointer
	// that checkSubmit found equal to the port's. Submitting goroutine only.
	okSchema []*tuple.Schema
	om       *metrics.OpMetrics
	inPM     []*metrics.Set // per input port
	outPM    []*metrics.Set // per output port
	// Hot-path counter cells resolved once at construction (see the PE
	// struct's cTuples* fields for the rationale).
	cProcessed *metrics.Counter   // builtin nTuplesProcessed
	cSubmitted *metrics.Counter   // builtin nTuplesSubmitted
	cPuncts    *metrics.Counter   // builtin nPunctsProcessed
	pIn        []*metrics.Counter // PortTuplesProcessed per input port
	pOut       []*metrics.Counter // PortTuplesSubmitted per output port

	// routing per output port
	intra   [][]intraTarget
	outlets []*outletSet

	finalSeen []bool
	finals    int
	ctx       *opContext

	// loopDone closes when consumeLoop returns; finalised is set only on
	// the clean all-inputs-finalised exit. The checkpoint driver captures
	// a finalised operator inline (nothing touches it any more) but must
	// refuse a crashed one — its state may be mid-mutation.
	loopDone  chan struct{}
	finalised atomic.Bool
}

type intraTarget struct {
	op   *opRuntime
	port int
}

// outletSet is the mutable fan-out of one output port across PE
// boundaries; import/export links attach and detach at runtime.
type outletSet struct {
	mu   sync.RWMutex
	fns  map[string]Outlet
	next []Outlet // cached snapshot
}

func (s *outletSet) add(id string, fn Outlet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fns == nil {
		s.fns = make(map[string]Outlet)
	}
	s.fns[id] = fn
	s.rebuild()
}

func (s *outletSet) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.fns, id)
	s.rebuild()
}

// rebuild replaces the snapshot with a freshly allocated slice: flush
// iterates its copy of the old snapshot outside the lock, so the backing
// array must never be reused.
func (s *outletSet) rebuild() {
	next := make([]Outlet, 0, len(s.fns))
	for _, fn := range s.fns {
		next = append(next, fn)
	}
	s.next = next
}

// snapshot returns the attached outlets. The slice is never written
// again, so the caller ranges over it outside the lock.
func (s *outletSet) snapshot() []Outlet {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.next
}

// New assembles a PE from its configuration; Start launches it.
func New(cfg Config) (*PE, error) {
	if cfg.Registry == nil {
		cfg.Registry = opapi.Default
	}
	if cfg.Objects == nil {
		cfg.Objects = opapi.DefaultObjects
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	p := &PE{
		cfg:       cfg,
		byName:    make(map[string]*opRuntime, len(cfg.Ops)),
		peMetrics: metrics.NewSet(),
		kill:      make(chan struct{}),
	}
	for _, n := range []string{metrics.PETupleBytesProcessed, metrics.PETupleBytesSubmitted,
		metrics.PETuplesProcessed, metrics.PETuplesSubmitted, metrics.PETuplesDropped,
		metrics.PERestarts, metrics.PECheckpoints, metrics.PECheckpointBytes,
		metrics.PEStateRestores} {
		p.peMetrics.Counter(n)
	}
	p.cTuplesIn = p.peMetrics.Counter(metrics.PETuplesProcessed)
	p.cTuplesOut = p.peMetrics.Counter(metrics.PETuplesSubmitted)
	p.cTuplesDropped = p.peMetrics.Counter(metrics.PETuplesDropped)
	// The age gauge starts at "never snapshotted"; the checkpoint driver
	// and the metric snapshotter keep it current from then on.
	p.peMetrics.Counter(metrics.PECheckpointAgeMs).Set(-1)
	p.peMetrics.Counter(metrics.PEIngestRate)
	p.peMetrics.Counter(metrics.PEEgressRate)
	p.lastRateAt = cfg.Clock.Now()
	for _, spec := range cfg.Ops {
		op, err := cfg.Registry.New(spec.Kind)
		if err != nil {
			return nil, fmt.Errorf("pe %s: operator %q: %w", cfg.ID, spec.Name, err)
		}
		rt := &opRuntime{
			pe:        p,
			spec:      spec,
			op:        op,
			in:        newInbox(cfg.QueueCap),
			outBuf:    make([][]Item, len(spec.Outputs)),
			okSchema:  make([]*tuple.Schema, len(spec.Outputs)),
			om:        metrics.NewOpMetrics(),
			intra:     make([][]intraTarget, len(spec.Outputs)),
			outlets:   make([]*outletSet, len(spec.Outputs)),
			finalSeen: make([]bool, len(spec.Inputs)),
			loopDone:  make(chan struct{}),
		}
		rt.batchOp, _ = op.(opapi.BatchOperator)
		rt.cProcessed = rt.om.Builtin.Counter(metrics.OpTuplesProcessed)
		rt.cSubmitted = rt.om.Builtin.Counter(metrics.OpTuplesSubmitted)
		rt.cPuncts = rt.om.Builtin.Counter(metrics.OpPunctsProcessed)
		for i := range rt.outlets {
			rt.outlets[i] = &outletSet{}
		}
		for range spec.Inputs {
			s := metrics.NewSet()
			rt.pIn = append(rt.pIn, s.Counter(metrics.PortTuplesProcessed))
			s.Counter(metrics.PortFinalPunctsQueued)
			rt.inPM = append(rt.inPM, s)
		}
		for range spec.Outputs {
			s := metrics.NewSet()
			rt.pOut = append(rt.pOut, s.Counter(metrics.PortTuplesSubmitted))
			rt.outPM = append(rt.outPM, s)
		}
		rt.ctx = &opContext{rt: rt}
		if _, dup := p.byName[spec.Name]; dup {
			return nil, fmt.Errorf("pe %s: duplicate operator %q", cfg.ID, spec.Name)
		}
		p.byName[spec.Name] = rt
		p.ops = append(p.ops, rt)
		if _, ok := op.(opapi.StatefulOperator); ok {
			p.statefuls = append(p.statefuls, rt)
		}
	}
	for _, w := range cfg.Wires {
		from, ok := p.byName[w.FromOp]
		if !ok {
			return nil, fmt.Errorf("pe %s: wire from unknown operator %q", cfg.ID, w.FromOp)
		}
		to, ok := p.byName[w.ToOp]
		if !ok {
			return nil, fmt.Errorf("pe %s: wire to unknown operator %q", cfg.ID, w.ToOp)
		}
		if w.FromPort < 0 || w.FromPort >= len(from.spec.Outputs) || w.ToPort < 0 || w.ToPort >= len(to.spec.Inputs) {
			return nil, fmt.Errorf("pe %s: wire %v port out of range", cfg.ID, w)
		}
		from.intra[w.FromPort] = append(from.intra[w.FromPort], intraTarget{op: to, port: w.ToPort})
	}
	return p, nil
}

// ID returns the PE id.
func (p *PE) ID() ids.PEID { return p.cfg.ID }

// Host returns the host the PE is placed on.
func (p *PE) Host() string { return p.cfg.Host }

// State returns the current lifecycle state.
func (p *PE) State() State { return State(p.state.Load()) }

// Start opens every operator, restores checkpointed state when
// configured, and launches the processing goroutines.
func (p *PE) Start() error {
	if !p.state.CompareAndSwap(int32(Created), int32(Running)) {
		return fmt.Errorf("pe %s: start of a %s container", p.cfg.ID, p.State())
	}
	for _, rt := range p.ops {
		if err := rt.op.Open(rt.ctx); err != nil {
			p.crash(fmt.Sprintf("operator %s failed to open: %v", rt.spec.Name, err))
			for _, o := range p.ops {
				close(o.loopDone) // no loop will run: release a capture waiting for one
			}
			return fmt.Errorf("pe %s: open %s: %w", p.cfg.ID, rt.spec.Name, err)
		}
	}
	// Restore between Open and goroutine launch: no tuple can race the
	// state overwrite, and operators observe restored state from their
	// very first Process call.
	if p.cfg.Ckpt.Restore && p.cfg.Ckpt.Store != nil {
		p.restoreState()
	}
	for _, rt := range p.ops {
		if len(rt.spec.Inputs) > 0 {
			p.wg.Add(1)
			go rt.consumeLoop()
		}
		if src, ok := rt.op.(opapi.Source); ok && len(rt.spec.Inputs) == 0 {
			p.wg.Add(1)
			go rt.sourceLoop(src)
		}
	}
	if p.cfg.Ckpt.Store != nil && p.cfg.Ckpt.Interval > 0 && len(p.statefuls) > 0 {
		p.wg.Add(1)
		go p.ckptLoop()
	}
	return nil
}

// Stop shuts the PE down cleanly (job cancellation path). A container
// that was never started is only retired (see retire): nobody was told
// it ran, so OnExit does not fire.
func (p *PE) Stop() {
	if p.retire(Stopped) || !p.state.CompareAndSwap(int32(Running), int32(Stopped)) {
		return
	}
	p.die()
	p.wg.Wait()
	for _, rt := range p.ops {
		if err := rt.op.Close(); err != nil {
			p.note(journal.Event{Action: "close", Target: rt.spec.Name, Err: err.Error()})
		}
	}
	p.fireExit(false, "stopped")
}

// Kill simulates a crash failure (the fault-injection path used by the
// failure experiments): the container dies immediately, queued items and
// operator state are lost, and Close is never called. Killing a
// container that was never started retires it (no OnExit); Start then
// fails.
func (p *PE) Kill(reason string) {
	if !p.retire(Crashed) && p.state.CompareAndSwap(int32(Running), int32(Crashed)) {
		p.note(journal.Event{Action: "kill", Note: reason})
		p.crashed(reason)
	}
}

// retire moves a Created container straight to its end state: no
// goroutine runs and no operator is open, so all there is to release is
// what producers wired ahead of Start have queued or are parked on. The
// inboxes close, waking them, and the queued tuples are counted as
// dropped and their entries released. It reports whether the container
// was Created.
func (p *PE) retire(to State) bool {
	if !p.state.CompareAndSwap(int32(Created), int32(to)) {
		return false
	}
	p.die()
	for _, rt := range p.ops {
		run, w, _ := rt.in.take(nil)
		p.cTuplesDropped.Add(int64(w))
		for i := range run {
			run[i].release()
		}
	}
	return true
}

// crash is the internal failure path for operator errors and panics.
func (p *PE) crash(reason string) {
	if p.state.CompareAndSwap(int32(Running), int32(Crashed)) {
		p.note(journal.Event{Action: "crash", Note: reason})
		p.crashed(reason)
	}
}

// note journals one event of this container.
func (p *PE) note(e journal.Event) {
	e.Source, e.Job, e.PE = "pe", p.cfg.Job, p.cfg.ID
	p.cfg.Journal.Add(e)
}

// crashed releases the goroutines of a container that has just entered
// Crashed and fires the exit callback, with the cause, once they are
// gone.
func (p *PE) crashed(reason string) {
	p.die()
	go func() {
		p.wg.Wait()
		p.fireExit(true, reason)
	}()
}

// die closes the kill channel and every operator's inbox, releasing the
// consume goroutines and any producer blocked on a full queue.
func (p *PE) die() {
	p.killOnce.Do(func() {
		close(p.kill)
		for _, rt := range p.ops {
			rt.in.close()
		}
	})
}

func (p *PE) fireExit(crashed bool, reason string) {
	p.exitOnce.Do(func() {
		if p.cfg.OnExit != nil {
			p.cfg.OnExit(p.cfg.ID, crashed, reason)
		}
	})
}

// port resolves an operator's input (or output) port.
func (p *PE) port(opName string, port int, input bool) (*opRuntime, error) {
	if rt, ok := p.byName[opName]; ok {
		n := len(rt.spec.Outputs)
		if input {
			n = len(rt.spec.Inputs)
		}
		if port >= 0 && port < n {
			return rt, nil
		}
	}
	return nil, fmt.Errorf("pe %s: no port %s:%d (input: %v)", p.cfg.ID, opName, port, input)
}

// ExternalInlet returns a function that feeds items into the named
// operator's input port from outside the PE (cross-PE transport or a
// cross-job import link). Tuples arriving after the PE died, or after the
// operator finalised, are dropped and counted on nTuplesDropped — tuple
// loss on failure, as the paper's §5.2 scenario requires. The tuple need
// only be valid for the call.
func (p *PE) ExternalInlet(opName string, port int) (func(Item), error) {
	rt, err := p.port(opName, port, true)
	if err != nil {
		return nil, err
	}
	return func(it Item) {
		w := 1
		if it.IsMark() {
			w = 0
		}
		it.T.Block().Retain() // the inbox entry's hold
		rt.put(&queued{port: port, item: [1]Item{it}}, w)
	}, nil
}

// ExternalBatchInlet returns a function that feeds whole item batches into
// the named operator's input port as a single queue operation (one
// pointer append) — the delivery side of the transport's small-batch
// framing. Ownership of the batch, holds included, transfers to the PE,
// which recycles it once its items have been delivered or dropped.
func (p *PE) ExternalBatchInlet(opName string, port int) (func(*Batch), error) {
	rt, err := p.port(opName, port, true)
	if err != nil {
		return nil, err
	}
	return func(b *Batch) { rt.put(&queued{port: port, batch: b}, countTuples(b.Items)) }, nil
}

// InputSchema returns the schema of an operator input port, for link
// compatibility checks.
func (p *PE) InputSchema(opName string, port int) (*tuple.Schema, error) {
	rt, err := p.port(opName, port, true)
	if err != nil {
		return nil, err
	}
	return rt.spec.Inputs[port], nil
}

// OutputSchema returns the schema of an operator output port.
func (p *PE) OutputSchema(opName string, port int) (*tuple.Schema, error) {
	rt, err := p.port(opName, port, false)
	if err != nil {
		return nil, err
	}
	return rt.spec.Outputs[port], nil
}

// AddOutlet attaches an external consumer to an operator output port under
// a link id; RemoveOutlet detaches it.
func (p *PE) AddOutlet(opName string, port int, linkID string, out Outlet) error {
	rt, err := p.port(opName, port, false)
	if err == nil {
		rt.outlets[port].add(linkID, out)
	}
	return err
}

// RemoveOutlet detaches a previously added external consumer.
func (p *PE) RemoveOutlet(opName string, port int, linkID string) error {
	rt, err := p.port(opName, port, false)
	if err == nil {
		rt.outlets[port].remove(linkID)
	}
	return err
}

// Control delivers a control command to a Controllable operator, returning
// the operator's response. The call is serialised with tuple processing.
func (p *PE) Control(opName, cmd string, args map[string]string) error {
	rt, ok := p.byName[opName]
	if !ok {
		return fmt.Errorf("pe %s: no operator %q", p.cfg.ID, opName)
	}
	ctl, ok := rt.op.(opapi.Controllable)
	if !ok {
		return fmt.Errorf("pe %s: operator %q is not controllable", p.cfg.ID, opName)
	}
	if len(rt.spec.Inputs) == 0 {
		// Sources have no consume loop; execute inline (the Run goroutine
		// must tolerate concurrent Control, documented on Controllable).
		return ctl.Control(cmd, args)
	}
	msg := &syncMsg{fn: func() error { return ctl.Control(cmd, args) }, done: make(chan error, 1)}
	if !rt.in.put(&queued{sync: msg}, 0) {
		return fmt.Errorf("pe %s: not running", p.cfg.ID)
	}
	select {
	case err := <-msg.done:
		return err
	case <-p.kill:
		return fmt.Errorf("pe %s: died during control", p.cfg.ID)
	}
}

// PEMetrics returns the PE-level metric set.
func (p *PE) PEMetrics() *metrics.Set { return p.peMetrics }

// noteStateAnchorAt anchors the container's state to a snapshot captured
// at the given past instant — the restore path uses the capture timestamp
// a v2 snapshot carries, so the age gauge reflects the true staleness of
// the adopted state rather than resetting to zero at restore time.
func (p *PE) noteStateAnchorAt(at time.Time) {
	nanos := at.UnixNano()
	if nanos == 0 {
		// A manual clock positioned exactly at the epoch would collide
		// with the "never anchored" sentinel; nudge by one nanosecond.
		nanos = 1
	}
	p.ckptAt.Store(nanos)
	p.refreshCheckpointAge()
}

// refreshCheckpointAge recomputes the snapshot-age gauge against the
// platform clock: -1 while the container has never anchored its state.
func (p *PE) refreshCheckpointAge() {
	anchored := p.ckptAt.Load()
	age := int64(-1)
	if anchored != 0 {
		age = (p.cfg.Clock.Now().UnixNano() - anchored) / int64(time.Millisecond)
	}
	p.peMetrics.Counter(metrics.PECheckpointAgeMs).Set(age)
}

// refreshRates recomputes the ingest/egress tuples-per-second gauges
// from the tuple-counter deltas since the previous snapshot. Snapshots
// closer together than 1ms keep the previous gauge values: the delta
// is too small to divide meaningfully and would only add noise.
func (p *PE) refreshRates(at time.Time) {
	in := p.peMetrics.Counter(metrics.PETuplesProcessed).Value()
	out := p.peMetrics.Counter(metrics.PETuplesSubmitted).Value()
	p.rateMu.Lock()
	defer p.rateMu.Unlock()
	dt := at.Sub(p.lastRateAt)
	if dt < time.Millisecond {
		return
	}
	sec := dt.Seconds()
	p.peMetrics.Counter(metrics.PEIngestRate).Set(int64(float64(in-p.lastIn)/sec + 0.5))
	p.peMetrics.Counter(metrics.PEEgressRate).Set(int64(float64(out-p.lastOut)/sec + 0.5))
	p.lastRateAt, p.lastIn, p.lastOut = at, in, out
}

// MetricsSnapshot renders every metric of the container as samples tagged
// with full identity, ready for the host controller to push to SRM.
func (p *PE) MetricsSnapshot() []metrics.Sample {
	at := p.cfg.Clock.Now()
	p.refreshCheckpointAge()
	p.refreshRates(at)
	var out []metrics.Sample
	add := func(base metrics.Sample, scope metrics.Scope, set *metrics.Set) {
		for name, v := range set.Snapshot() {
			base.Scope, base.Name, base.Value = scope, name, v
			out = append(out, base)
		}
	}
	pe := metrics.Sample{Job: p.cfg.Job, App: p.cfg.App, PE: p.cfg.ID, At: at}
	add(pe, metrics.PEScope, p.peMetrics)
	for _, rt := range p.ops {
		base := pe
		base.Operator, base.OperatorKind = rt.spec.Name, rt.spec.Kind
		// Refresh the queue gauge (tuples pending) at snapshot time.
		rt.om.Builtin.Counter(metrics.OpQueueSize).Set(int64(rt.in.depth()))
		add(base, metrics.OperatorScope, rt.om.Builtin)
		custom := base
		custom.Custom = true
		add(custom, metrics.OperatorScope, rt.om.Custom)
		for port, pm := range rt.inPM {
			base.Port, base.Dir = port, metrics.Input
			add(base, metrics.PortScope, pm)
		}
		for port, pm := range rt.outPM {
			base.Port, base.Dir = port, metrics.Output
			add(base, metrics.PortScope, pm)
		}
	}
	return out
}

// maxChunk is the most tuples one ProcessBatch call gets: the transport's
// frame size (MaxFrameTuples), so that a drained run holding a whole
// queue is still worked through — and a kill noticed — in frame-sized steps.
const maxChunk = 64

// put queues one entry weighing w tuples, its holds already taken, on
// the operator's inbox, blocking for backpressure. A closed inbox — the
// operator finalised or the container died — refuses it: the tuples are
// counted as dropped and the entry is released.
func (rt *opRuntime) put(q *queued, w int) {
	if rt.in.put(q, w) {
		return
	}
	rt.pe.cTuplesDropped.Add(int64(w))
	q.release()
}

// consumeLoop is the processing goroutine of one operator *instance*
// with inputs: every Process/ProcessBatch/ProcessMark/Control call on
// the instance happens here, serialised. (The unit is the instance: a
// logical operator declared parallel runs as several replicas in
// separate PEs, each with its own consumeLoop.) Each iteration drains
// the inbox whole. When the container dies or the operator fails
// part-way through a drained run, the tuples not yet processed — the
// failed chunk and everything behind it — are journalled and counted on the
// PE's nTuplesDropped instead of vanishing silently; what is left
// behind the last final mark is not a loss. Nor is such a run released:
// its holds on leased blocks are forgotten, never dropped early.
func (rt *opRuntime) consumeLoop() {
	defer rt.pe.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			rt.pe.crash(fmt.Sprintf("operator %s panicked: %v", rt.spec.Name, r))
		}
		if !rt.finalised.Load() && rt.owed > 0 {
			rt.pe.cTuplesDropped.Add(int64(rt.owed))
			rt.pe.note(journal.Event{Action: "drop-run", Target: rt.spec.Name,
				Note: fmt.Sprintf("dropped %d undelivered tuple(s) of a drained run", rt.owed)})
		}
	}()
	defer func() {
		close(rt.loopDone)
		rt.in.close()
	}()
	var run []queued
	for ok := true; ok; clear(run) {
		run, rt.owed, ok = rt.in.take(run)
		ok = ok && rt.deliverRun(run)
	}
}

// countTuples returns the number of tuple (non-mark) items.
func countTuples(items []Item) int {
	n := 0
	for _, it := range items {
		if !it.IsMark() {
			n++
		}
	}
	return n
}

// deliverRun walks one drained run in order, cutting it into chunks at
// port changes, marks, synchronised calls and maxChunk. An entry is
// released only after the chunk holding its last tuple has been
// processed and flushed: until then the operator reads the tuples and
// its pending emits point into them. It reports whether the consume
// loop should go on.
func (rt *opRuntime) deliverRun(run []queued) bool {
	if rt.pe.State() != Running {
		return false
	}
	done := 0 // run[:done] is released
	// chunk delivers the pending chunk: the last tuples of run[:upto].
	chunk := func(upto int) bool {
		if !rt.deliverChunk() {
			return false
		}
		for ; done < upto; done++ {
			// Not worth a call for a single unleased item or a message.
			if e := &run[done]; e.batch != nil || e.item[0].T.Block() != nil {
				e.release()
			}
		}
		return true
	}
	for i := range run {
		q := &run[i]
		if q.sync != nil {
			if !chunk(i) {
				return false
			}
			if q.sync.claim() {
				q.sync.done <- q.sync.fn()
				rt.flush()
			}
			continue
		}
		items := q.item[:]
		if q.batch != nil {
			items = q.batch.Items
		}
		for k := range items {
			if it := &items[k]; it.IsMark() {
				if !chunk(i) || !rt.deliverMark(q.port, it.Mark) {
					return false
				}
			} else {
				if (q.port != rt.viewPort || len(rt.viewTs) == maxChunk) && !chunk(i) {
					return false
				}
				rt.viewPort = q.port
				rt.viewTs = append(rt.viewTs, it.T)
			}
		}
	}
	return chunk(len(run))
}

// deliverChunk hands the accumulated chunk to the operator — one
// ProcessBatch call where the operator has it, unrolled into Process
// calls here, and only here, where it does not — then forwards what the
// operator emitted. The chunk is the unit of failure: when a call fails,
// none of its tuples count as processed and the chunk's emits are never
// forwarded (a restart that replays upstream of the failure point would
// double-deliver them). It reports whether the consume loop should go on.
func (rt *opRuntime) deliverChunk() bool {
	ts := rt.viewTs
	if len(ts) == 0 {
		return true
	}
	if rt.pe.State() != Running {
		return false
	}
	var err error
	if rt.batchOp != nil {
		rt.view.SetView(ts)
		err = rt.batchOp.ProcessBatch(rt.viewPort, &rt.view)
		rt.view.SetView(nil)
	} else {
		for i := 0; i < len(ts) && err == nil; i++ {
			err = rt.op.Process(rt.viewPort, ts[i])
		}
	}
	clear(ts)
	rt.viewTs = ts[:0]
	if err != nil {
		rt.pe.crash(fmt.Sprintf("operator %s: %v", rt.spec.Name, err))
		return false
	}
	rt.owed -= len(ts)
	rt.cProcessed.Add(int64(len(ts)))
	rt.pIn[rt.viewPort].Add(int64(len(ts)))
	rt.pe.cTuplesIn.Add(int64(len(ts)))
	rt.flush()
	return true
}

// deliverMark processes one punctuation; it reports false when the
// operator failed or has now seen final punctuation on every input port.
func (rt *opRuntime) deliverMark(port int, m tuple.Mark) bool {
	rt.cPuncts.Inc()
	final := m == tuple.FinalMark
	if final {
		if rt.finalSeen[port] {
			return true // duplicate final on a port: ignore
		}
		rt.finalSeen[port] = true
		rt.finals++
		rt.inPM[port].Counter(metrics.PortFinalPunctsQueued).Inc()
	}
	if err := rt.op.ProcessMark(port, m); err != nil {
		rt.pe.crash(fmt.Sprintf("operator %s: %v", rt.spec.Name, err))
		return false
	}
	if final = final && rt.finals == len(rt.spec.Inputs); final {
		rt.forwardFinal()
		rt.finalised.Store(true)
	}
	rt.flush()
	return !final
}

// flush forwards the operator's pending emits: every intra-PE target
// receives its port's items as one queue entry, every external outlet
// receives them as one run, and the submission counters advance by the
// tuple count in one step per port. Each target takes its own holds
// before the buffer drops the ones emit took — except where a run of
// more than one item has one fused target and no outlet: the buffer
// itself, holds and all, becomes that target's batch, and the pooled
// batch's empty slice the next buffer.
func (rt *opRuntime) flush() {
	for port, buf := range rt.outBuf {
		if len(buf) == 0 {
			continue
		}
		nt := countTuples(buf)
		rt.cSubmitted.Add(int64(nt))
		rt.pOut[port].Add(int64(nt))
		rt.pe.cTuplesOut.Add(int64(nt))
		outs := rt.outlets[port].snapshot()
		if tgts := rt.intra[port]; len(buf) > 1 && len(tgts) == 1 && len(outs) == 0 {
			q := queued{port: tgts[0].port, batch: GetBatch()}
			q.batch.Items, rt.outBuf[port] = buf, q.batch.Items
			tgts[0].op.put(&q, nt)
			continue
		}
		for _, tgt := range rt.intra[port] {
			q := queued{port: tgt.port}
			if len(buf) == 1 {
				q.item[0] = buf[0]
				buf[0].T.Block().Retain()
			} else {
				q.batch = GetBatch()
				q.batch.Items = append(q.batch.Items, buf...)
				holdRun(nil, buf)
			}
			tgt.op.put(&q, nt)
		}
		for _, out := range outs {
			out(buf)
		}
		releaseRun(buf)
		clear(buf)
		rt.outBuf[port] = buf[:0]
	}
}

// sourceLoop drives a source operator; a nil return from Run emits final
// punctuation downstream.
func (rt *opRuntime) sourceLoop(src opapi.Source) {
	defer rt.pe.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			rt.pe.crash(fmt.Sprintf("source %s panicked: %v", rt.spec.Name, r))
		}
	}()
	if err := src.Run(rt.pe.kill); err != nil {
		rt.pe.crash(fmt.Sprintf("source %s: %v", rt.spec.Name, err))
		return
	}
	select {
	case <-rt.pe.kill:
		return // stopped or crashed: no final punctuation
	default:
	}
	rt.forwardFinal()
}

// forwardFinal emits FinalMark on every output port.
func (rt *opRuntime) forwardFinal() {
	for port := range rt.spec.Outputs {
		rt.emit(port, MarkItem(tuple.FinalMark))
	}
}

// emit buffers an item leaving an output port, held until flush has
// handed it on. An operator with inputs emits from its consume
// goroutine, which flushes once per chunk; a source has no chunk to
// coalesce over and forwards at once.
func (rt *opRuntime) emit(port int, it Item) {
	buf := rt.outBuf[port]
	// holdRun for one item, read from the argument rather than the copy.
	if b := it.T.Block(); b != nil && (len(buf) == 0 || buf[len(buf)-1].T.Block() != b) {
		b.Retain()
	}
	rt.outBuf[port] = append(buf, it)
	if len(rt.spec.Inputs) == 0 {
		rt.flush()
	}
}

// emitRun buffers a run of tuples leaving an output port: emit for the
// whole run, so a source forwards it in one flush.
func (rt *opRuntime) emitRun(port int, ts []tuple.Tuple) {
	held := rt.outBuf[port]
	buf := held
	for _, t := range ts {
		buf = append(buf, TupleItem(t))
	}
	holdRun(held, buf[len(held):])
	rt.outBuf[port] = buf
	if len(rt.spec.Inputs) == 0 {
		rt.flush()
	}
}
