// Package platform assembles the System S equivalent: SRM (resource
// manager and metrics collector), a simulated host cluster with per-host
// controllers, and SAM (application manager) wired together exactly as
// §2.2 describes. An Instance is what examples, experiments, and the
// orchestrator run against.
package platform

import (
	"fmt"
	"time"

	"streamorca/internal/ckpt"
	"streamorca/internal/cluster"
	"streamorca/internal/opapi"
	"streamorca/internal/sam"
	"streamorca/internal/srm"
	"streamorca/internal/vclock"
)

// HostSpec declares one simulated host.
type HostSpec struct {
	Name string
	Tags []string
}

// Options configures an Instance.
type Options struct {
	// Clock drives all time-dependent behaviour; nil means the wall
	// clock. Experiments use a vclock.Manual for determinism.
	Clock vclock.Clock
	// Hosts to bring up; at least one is required.
	Hosts []HostSpec
	// MetricsInterval is the HC→SRM push period (paper default: 3 s).
	MetricsInterval time.Duration
	// Registry resolves operator kinds; nil means opapi.Default.
	Registry *opapi.Registry
	// Checkpoint is the operator-state snapshot store; nil disables
	// checkpointing (restarted PEs come back empty).
	Checkpoint ckpt.Store
	// CheckpointInterval is the per-PE automatic snapshot period; 0
	// means on-demand checkpoints only.
	CheckpointInterval time.Duration
	// Retry bounds and paces SAM's restart and checkpoint actuations.
	// The zero value keeps the single-attempt behaviour deterministic
	// virtual-clock tests rely on; sam.DefaultRetryPolicy() opts into
	// bounded retries with exponential backoff.
	Retry sam.RetryPolicy
}

// Instance is one running platform.
type Instance struct {
	Clock   vclock.Clock
	SRM     *srm.SRM
	Cluster *cluster.Cluster
	SAM     *sam.SAM
}

// NewInstance boots the platform daemons and hosts.
func NewInstance(opts Options) (*Instance, error) {
	if len(opts.Hosts) == 0 {
		return nil, fmt.Errorf("platform: at least one host required")
	}
	clock := opts.Clock
	if clock == nil {
		clock = vclock.Real()
	}
	resMgr := srm.New()
	cl := cluster.New(clock, resMgr, opts.MetricsInterval)
	for _, h := range opts.Hosts {
		if err := cl.AddHost(h.Name, h.Tags...); err != nil {
			cl.Close()
			return nil, err
		}
	}
	appMgr := sam.New(sam.Config{
		Clock:        clock,
		Cluster:      cl,
		SRM:          resMgr,
		Registry:     opts.Registry,
		Ckpt:         opts.Checkpoint,
		CkptInterval: opts.CheckpointInterval,
		Retry:        opts.Retry,
	})
	return &Instance{Clock: clock, SRM: resMgr, Cluster: cl, SAM: appMgr}, nil
}

// FlushMetrics pushes all host metrics to SRM immediately, giving tests
// and experiment drivers deterministic metric visibility.
func (i *Instance) FlushMetrics() { i.Cluster.FlushMetrics() }

// Close shuts down every job and host controller.
func (i *Instance) Close() { i.Cluster.Close() }
