package policies

import (
	"fmt"
	"sync/atomic"

	"streamorca/internal/core"
)

// Restart is the smallest useful adaptation routine: restart every
// failed PE of one application. The scenarios and Failover all need it,
// each with one twist, and the fields are exactly those twists.
//
// SAM's degradation notification (core.PEFailureContext.Abandoned: the
// platform gave up on a PE after its retry budget) is counted and not
// re-actuated — another RestartPE from inside the handler would hide
// the budget the caller configured and fail against the same obstacle.
type Restart struct {
	// App names the registered application whose PE failures the routine
	// handles.
	App string
	// Submit makes Setup submit App once, so the routine owns the job.
	Submit bool
	// Before runs ahead of the restart: the user-specific failure
	// handling (quiesce a consumer, record the pre-failure state).
	Before func(*core.PEFailureContext)
	// Restarted runs after a successful restart.
	Restarted func(*core.PEFailureContext)
	// Strict makes the handler return a failed restart's error, which
	// the service counts as a handler error. Without it the failure is
	// left to SAM's journalled attempts and the caller's recovery sweep.
	Strict bool

	abandoned atomic.Int64
}

// Name implements core.Routine.
func (r *Restart) Name() string { return "restart" }

// Setup optionally submits the application and subscribes to its PE
// failures.
func (r *Restart) Setup(sc *core.SetupContext) error {
	if r.Submit {
		if _, err := sc.Actions().SubmitApplication(r.App, nil); err != nil {
			return fmt.Errorf("restart: submit %s: %w", r.App, err)
		}
	}
	return sc.Subscribe(core.OnPEFailure(
		core.NewPEFailureScope("restartFailed").AddApplicationFilter(r.App), r.OnPEFailure))
}

// OnPEFailure is the failure handler; routines with their own
// subscription (Failover) call it after their own handling.
func (r *Restart) OnPEFailure(ctx *core.PEFailureContext, act *core.Actions) error {
	if ctx.Abandoned() {
		r.abandoned.Add(1)
		return nil
	}
	if r.Before != nil {
		r.Before(ctx)
	}
	if err := act.RestartPE(ctx.PE); err != nil {
		if r.Strict {
			return fmt.Errorf("restart %s: %w", ctx.PE, err)
		}
		return nil
	}
	if r.Restarted != nil {
		r.Restarted(ctx)
	}
	return nil
}

// Abandoned returns how many degradation notifications the routine saw.
func (r *Restart) Abandoned() int { return int(r.abandoned.Load()) }
