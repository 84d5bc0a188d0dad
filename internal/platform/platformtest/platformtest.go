// Package platformtest boots a platform for a test and waits on what it
// runs. Only tests import it. It imports platform, ops, ids and the one
// bounded wait, none of which imports core, policies, apps or baseline,
// so the in-package tests of those packages can use it.
package platformtest

import (
	"fmt"
	"testing"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/ops"
	"streamorca/internal/platform"
	"streamorca/internal/wait"
)

// Boot starts a platform and closes it when the test ends. Hosts default
// to one, "h1"; MetricsInterval defaults to an hour, so samples reach SRM
// only when the test flushes them.
func Boot(tb testing.TB, opts platform.Options) *platform.Instance {
	tb.Helper()
	if len(opts.Hosts) == 0 {
		opts.Hosts = Hosts("h1")
	}
	if opts.MetricsInterval == 0 {
		opts.MetricsInterval = time.Hour
	}
	inst, err := platform.NewInstance(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(inst.Close)
	return inst
}

// Hosts declares one untagged host per name.
func Hosts(names ...string) []platform.HostSpec {
	specs := make([]platform.HostSpec, len(names))
	for i, n := range names {
		specs[i].Name = n
	}
	return specs
}

// AwaitRunning waits until every PE of the job is running.
func AwaitRunning(tb testing.TB, inst *platform.Instance, job ids.JobID) {
	tb.Helper()
	wait.For(tb, fmt.Sprintf("every PE of job %s running", job), func() bool {
		info, ok := inst.SAM.Job(job)
		for _, p := range info.PEs {
			ok = ok && p.State == "running"
		}
		return ok
	})
}

// Delivered waits until the named collection of the instance holds at
// least n tuples, and returns it.
func Delivered(tb testing.TB, inst *platform.Instance, collector string, n int) *ops.Collection {
	tb.Helper()
	coll := ops.Collector(inst.SAM.Objects(), collector)
	wait.For(tb, fmt.Sprintf("%d tuples at %s", n, collector), func() bool { return coll.Len() >= n })
	return coll
}
