// Package cluster simulates the distributed host layer of System S: a set
// of named hosts, each running a Host Controller (HC) daemon that starts
// and supervises local PE containers, collects their metrics on a fixed
// interval, and pushes batches to SRM (§2.2 — PEs deliver metric values to
// SRM at fixed rates independent of orchestrator calls). The cluster also
// provides the fault-injection surface the failure experiments use: kill a
// single PE or take down a whole host.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/pe"
	"streamorca/internal/srm"
	"streamorca/internal/vclock"
)

// DefaultMetricsInterval matches the paper's 3-second PE→SRM push rate.
const DefaultMetricsInterval = 3 * time.Second

// HostInfo describes one host for placement decisions.
type HostInfo struct {
	Name string
	Tags []string
	Up   bool
	PEs  int // number of resident PE containers
}

// Cluster is the set of simulated hosts.
type Cluster struct {
	clock    vclock.Clock
	srm      *srm.SRM
	interval time.Duration

	mu     sync.Mutex
	hosts  map[string]*host
	closed bool
}

type host struct {
	name string
	tags []string
	up   bool
	pes  map[ids.PEID]*pe.PE
	// done stops the HC metrics loop; nil while the host is down (a dead
	// host has no HC daemon — KillHost stops the loop, ReviveHost starts
	// a fresh one).
	done chan struct{}
	// pauseUntil delays periodic metric pushes (chaos metric-delay
	// injection); FlushMetrics ignores it.
	pauseUntil time.Time
}

// New builds a cluster pushing metrics to the given SRM every interval
// (DefaultMetricsInterval when interval <= 0).
func New(clock vclock.Clock, s *srm.SRM, interval time.Duration) *Cluster {
	if clock == nil {
		clock = vclock.Real()
	}
	if interval <= 0 {
		interval = DefaultMetricsInterval
	}
	return &Cluster{clock: clock, srm: s, interval: interval, hosts: make(map[string]*host)}
}

// AddHost brings a host (and its HC daemon) into the instance.
func (c *Cluster) AddHost(name string, tags ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("cluster: closed")
	}
	if name == "" {
		return fmt.Errorf("cluster: empty host name")
	}
	if _, dup := c.hosts[name]; dup {
		return fmt.Errorf("cluster: host %q already exists", name)
	}
	h := &host{name: name, tags: tags, up: true, pes: make(map[ids.PEID]*pe.PE), done: make(chan struct{})}
	c.hosts[name] = h
	go c.metricsLoop(h, h.done)
	return nil
}

// metricsLoop is the HC's periodic metric push. done is captured per
// incarnation: a revived host gets a fresh channel and a fresh loop.
func (c *Cluster) metricsLoop(h *host, done chan struct{}) {
	tk := c.clock.NewTicker(c.interval)
	defer tk.Stop()
	for {
		select {
		case <-tk.C():
			c.pushHostMetrics(h, false)
		case <-done:
			return
		}
	}
}

// pushHostMetrics pushes one host's PE metrics to SRM. force bypasses an
// injected metric delay (periodic pushes honour it, FlushMetrics not).
func (c *Cluster) pushHostMetrics(h *host, force bool) {
	c.mu.Lock()
	if !h.up || (!force && c.clock.Now().Before(h.pauseUntil)) {
		c.mu.Unlock()
		return
	}
	containers := make([]*pe.PE, 0, len(h.pes))
	for _, p := range h.pes {
		containers = append(containers, p)
	}
	c.mu.Unlock()
	for _, p := range containers {
		if p.State() == pe.Running {
			c.srm.PushSamples(p.MetricsSnapshot())
		}
	}
}

// FlushMetrics synchronously pushes every host's metrics to SRM. Tests and
// experiment drivers call it for deterministic metric visibility instead
// of waiting out the push interval.
func (c *Cluster) FlushMetrics() {
	c.mu.Lock()
	hs := make([]*host, 0, len(c.hosts))
	for _, h := range c.hosts {
		hs = append(hs, h)
	}
	c.mu.Unlock()
	for _, h := range hs {
		c.pushHostMetrics(h, true)
	}
}

// DelayMetrics postpones the named host's periodic metric pushes by d
// from now (the chaos harness's metric-delivery delay). FlushMetrics is
// unaffected, so deterministic tests keep their explicit visibility.
func (c *Cluster) DelayMetrics(name string, d time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hosts[name]
	if !ok {
		return fmt.Errorf("cluster: unknown host %q", name)
	}
	h.pauseUntil = c.clock.Now().Add(d)
	return nil
}

// Hosts returns placement info for every host, sorted by name.
func (c *Cluster) Hosts() []HostInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]HostInfo, 0, len(c.hosts))
	for _, h := range c.hosts {
		out = append(out, HostInfo{
			Name: h.name, Tags: append([]string(nil), h.tags...), Up: h.up, PEs: len(h.pes),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HostUp reports whether the host exists and is alive.
func (c *Cluster) HostUp(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hosts[name]
	return ok && h.up
}

// PlacePE builds a PE container on the named host and registers it with
// the host's HC, without starting it: the caller wires the container
// and then calls its Start. The HC supervises the container: on exit it
// updates local bookkeeping and reports to SRM, which fans out to SAM
// (and from there to the orchestrator) — the paper's failure
// notification chain.
func (c *Cluster) PlacePE(hostName string, cfg pe.Config) (*pe.PE, error) {
	cfg.Host = hostName
	if cfg.Clock == nil {
		cfg.Clock = c.clock
	}
	userExit := cfg.OnExit
	job, app := cfg.Job, cfg.App
	var container *pe.PE
	cfg.OnExit = func(id ids.PEID, crashed bool, reason string) {
		c.forget(container)
		if c.srm != nil {
			c.srm.ReportPEExit(srm.PEExit{
				PE: id, Job: job, App: app, Host: hostName,
				Crashed: crashed, Reason: reason, At: c.clock.Now(),
			})
		}
		if userExit != nil {
			userExit(id, crashed, reason)
		}
	}
	container, err := pe.New(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hosts[hostName]
	switch {
	case c.closed:
		return nil, fmt.Errorf("cluster: closed")
	case !ok:
		return nil, fmt.Errorf("cluster: unknown host %q", hostName)
	case !h.up:
		return nil, fmt.Errorf("cluster: host %q is down", hostName)
	case h.pes[cfg.ID] != nil:
		return nil, fmt.Errorf("cluster: PE %s already on host %q", cfg.ID, hostName)
	}
	h.pes[cfg.ID] = container
	return container, nil
}

// forget drops a container from its host's table, unless a later
// incarnation of the PE has taken its place there.
func (c *Cluster) forget(p *pe.PE) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.hosts[p.Host()]; ok && h.pes[p.ID()] == p {
		delete(h.pes, p.ID())
	}
}

// StopPE cleanly stops a PE container and takes it off its host. A
// container that was never started reports no exit, so this is the
// path that unregisters one.
func (c *Cluster) StopPE(p *pe.PE) {
	c.forget(p)
	p.Stop()
}

// KillPE injects a crash failure into a running PE.
func (c *Cluster) KillPE(id ids.PEID, reason string) error {
	p, err := c.findPE(id)
	if err != nil {
		return err
	}
	p.Kill(reason)
	return nil
}

// PEContainer returns the container for a resident PE.
func (c *Cluster) PEContainer(id ids.PEID) (*pe.PE, bool) {
	p, err := c.findPE(id)
	return p, err == nil
}

func (c *Cluster) findPE(id ids.PEID) (*pe.PE, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.hosts {
		if p, ok := h.pes[id]; ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("cluster: no resident PE %s", id)
}

// KillHost simulates a host failure: every resident PE dies with a
// "host failure" reason carrying the same detection timestamp, and SRM is
// notified of the host going down. The shared cause and timestamp let the
// ORCA service assign all resulting PE failure events one epoch (§4.2).
func (c *Cluster) KillHost(name string) error {
	c.mu.Lock()
	h, ok := c.hosts[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown host %q", name)
	}
	if !h.up {
		c.mu.Unlock()
		return fmt.Errorf("cluster: host %q already down", name)
	}
	h.up = false
	// The HC daemon dies with its host: stop the metrics loop instead of
	// leaving it ticking against a dead host for the cluster's lifetime.
	if h.done != nil {
		close(h.done)
		h.done = nil
	}
	victims := make([]*pe.PE, 0, len(h.pes))
	for _, p := range h.pes {
		victims = append(victims, p)
	}
	// A dead host holds nothing: containers placed but not yet started
	// report no exit, and ReviveHost brings the host back empty.
	clear(h.pes)
	c.mu.Unlock()

	at := c.clock.Now()
	reason := HostFailureReason(name, at)
	for _, p := range victims {
		p.Kill(reason)
	}
	if c.srm != nil {
		c.srm.ReportHostDown(name, at)
	}
	return nil
}

// HostFailureReason formats the crash reason attached to every PE killed
// by one host failure. The ORCA service reconstructs the same string from
// the host-down notification, so the host failure event and its PE
// failure events share one epoch (§4.2).
func HostFailureReason(host string, at time.Time) string {
	return fmt.Sprintf("host failure: %s at %s", host, at.UTC().Format(time.RFC3339Nano))
}

// ReviveHost brings a failed host back (empty, as a rebooted machine).
// The rebooted HC resumes its periodic metric pushes with a fresh loop.
func (c *Cluster) ReviveHost(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("cluster: closed")
	}
	h, ok := c.hosts[name]
	if !ok {
		return fmt.Errorf("cluster: unknown host %q", name)
	}
	if !h.up {
		h.done = make(chan struct{})
		go c.metricsLoop(h, h.done)
	}
	h.up = true
	return nil
}

// Close stops every host controller loop and every resident PE.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var all []*pe.PE
	for _, h := range c.hosts {
		if h.done != nil {
			close(h.done)
			h.done = nil
		}
		for _, p := range h.pes {
			all = append(all, p)
		}
	}
	c.mu.Unlock()
	for _, p := range all {
		p.Stop()
	}
}
