package core

import (
	"strings"
	"testing"
	"time"

	"streamorca/internal/ids"
	"streamorca/internal/platform"
	"streamorca/internal/wait"
)

// figure7 registers the paper's Figure 7 application set: four source
// applications (fb, tw, fox, msnbc), sn depending on fb and tw with a
// 20 s uptime requirement, and all depending on all four sources with an
// 80 s uptime requirement. fox is not garbage collectable; every other
// application is, with a 30 s GC timeout.
func figure7(t *testing.T, h *harness) {
	t.Helper()
	for _, name := range []string{"fb", "tw", "fox", "msnbc", "sn", "all"} {
		if err := h.svc.RegisterApplication(simpleApp(t, name, "f7-"+name, "0")); err != nil {
			t.Fatal(err)
		}
		gc := name != "fox"
		if err := h.svc.RegisterAppConfig(AppConfig{
			ID: name, AppName: name, GarbageCollectable: gc, GCTimeout: 30 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustDep := func(from, to string, up time.Duration) {
		t.Helper()
		if err := h.svc.RegisterDependency(from, to, up); err != nil {
			t.Fatal(err)
		}
	}
	mustDep("sn", "fb", 20*time.Second)
	mustDep("sn", "tw", 20*time.Second)
	for _, src := range []string{"fb", "tw", "fox", "msnbc"} {
		mustDep("all", src, 80*time.Second)
	}
}

// startAppAsync runs StartApp on a goroutine and returns a channel with
// its result.
func startAppAsync(h *harness, id string) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- h.svc.StartApp(id) }()
	return ch
}

func running(h *harness, id string) bool {
	_, ok := h.svc.RunningConfigs()[id]
	return ok
}

func TestRegisterAppConfigValidation(t *testing.T) {
	h := rig(t, platform.Options{})
	if err := h.svc.RegisterAppConfig(AppConfig{ID: "", AppName: "x"}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := h.svc.RegisterAppConfig(AppConfig{ID: "a", AppName: "unregistered"}); err == nil {
		t.Fatal("unregistered app accepted")
	}
	if err := h.svc.RegisterApplication(simpleApp(t, "App", "rc", "0")); err != nil {
		t.Fatal(err)
	}
	if err := h.svc.RegisterAppConfig(AppConfig{ID: "a", AppName: "App"}); err != nil {
		t.Fatal(err)
	}
	if err := h.svc.RegisterAppConfig(AppConfig{ID: "a", AppName: "App"}); err == nil {
		t.Fatal("duplicate config accepted")
	}
}

func TestRegisterDependencyValidation(t *testing.T) {
	h := rig(t, platform.Options{})
	if err := h.svc.RegisterApplication(simpleApp(t, "App", "rd", "0")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := h.svc.RegisterAppConfig(AppConfig{ID: id, AppName: "App"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.svc.RegisterDependency("ghost", "a", 0); err == nil {
		t.Fatal("unknown from accepted")
	}
	if err := h.svc.RegisterDependency("a", "ghost", 0); err == nil {
		t.Fatal("unknown to accepted")
	}
	if err := h.svc.RegisterDependency("a", "a", 0); err == nil {
		t.Fatal("self dependency accepted")
	}
	if err := h.svc.RegisterDependency("a", "b", -time.Second); err == nil {
		t.Fatal("negative uptime accepted")
	}
	if err := h.svc.RegisterDependency("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if err := h.svc.RegisterDependency("b", "c", 0); err != nil {
		t.Fatal(err)
	}
	// c -> a would close the cycle a -> b -> c -> a (§4.4: registration
	// error on cycles).
	if err := h.svc.RegisterDependency("c", "a", 0); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle err = %v", err)
	}
}

// TestFigure7SubmissionOrderAndTiming reproduces §4.4's walkthrough:
// submitting `all` starts the four sources immediately, prunes sn, sleeps
// 80 virtual seconds, then submits all.
func TestFigure7SubmissionOrderAndTiming(t *testing.T) {
	h := rig(t, platform.Options{})
	h.observe(t, NewJobEventScope("jobs"))
	h.start(t)
	figure7(t, h)

	done := startAppAsync(h, "all")
	wait.For(t, "roots submitted", func() bool {
		return running(h, "fb") && running(h, "tw") && running(h, "fox") && running(h, "msnbc")
	})
	if running(h, "sn") {
		t.Fatal("sn submitted although not needed by all")
	}
	if running(h, "all") {
		t.Fatal("all submitted before its uptime requirement")
	}
	// The submission thread sleeps on the manual clock. Advancing less
	// than the requirement must not release it.
	h.clock.BlockUntilWaiters(2) // the pull loop waits too: 2 = it + the StartApp sleeper
	h.clock.Advance(79 * time.Second)
	if running(h, "all") {
		t.Fatal("all submitted after 79s")
	}
	h.clock.BlockUntilWaiters(2) // the pull loop waits too: 2 = it + the StartApp sleeper
	h.clock.Advance(time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !running(h, "all") {
		t.Fatal("all not running after StartApp returned")
	}

	wait.For(t, "job events", func() bool { return h.rec.countKind(KindJobSubmitted) == 5 })
	var order []string
	for _, e := range h.rec.snapshot() {
		if e.kind == KindJobSubmitted {
			order = append(order, e.ctx.(*JobContext).ConfigID)
		}
	}
	// Roots submit in deterministic id order, then the target.
	want := []string{"fb", "fox", "msnbc", "tw", "all"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("submission order = %v, want %v", order, want)
		}
	}
}

// TestFigure7SnSubmitsWithShorterWait checks §4.4's tie-break: sn's 20 s
// requirement is already satisfied once fb and tw have been up for 80 s.
func TestFigure7SnSubmitsWithShorterWait(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	figure7(t, h)
	done := startAppAsync(h, "all")
	wait.For(t, "roots", func() bool { return running(h, "fb") && running(h, "tw") })
	h.clock.BlockUntilWaiters(2) // the pull loop waits too: 2 = it + the StartApp sleeper
	h.clock.Advance(80 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// fb and tw have 80s uptime; sn needs only 20s: immediate.
	if err := h.svc.StartApp("sn"); err != nil {
		t.Fatal(err)
	}
	if !running(h, "sn") {
		t.Fatal("sn not running")
	}
}

func TestFigure7SnWaitsTwentySeconds(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	figure7(t, h)
	done := startAppAsync(h, "sn")
	wait.For(t, "sn roots", func() bool { return running(h, "fb") && running(h, "tw") })
	if running(h, "sn") || running(h, "fox") || running(h, "msnbc") {
		t.Fatal("pruning failed: unrelated apps submitted or sn early")
	}
	h.clock.BlockUntilWaiters(2) // the pull loop waits too: 2 = it + the StartApp sleeper
	h.clock.Advance(20 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !running(h, "sn") {
		t.Fatal("sn not running after uptime wait")
	}
}

func TestStarvationPrevention(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	figure7(t, h)
	done := startAppAsync(h, "sn")
	wait.For(t, "roots", func() bool { return running(h, "fb") && running(h, "tw") })
	h.clock.BlockUntilWaiters(2) // the pull loop waits too: 2 = it + the StartApp sleeper
	h.clock.Advance(20 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// fb feeds the running sn: cancelling it must fail (§4.4).
	err := h.svc.StopApp("fb")
	if err == nil || !strings.Contains(err.Error(), "depends on it") {
		t.Fatalf("StopApp(fb) = %v", err)
	}
	if !running(h, "fb") {
		t.Fatal("fb cancelled despite starvation check")
	}
}

func TestGarbageCollectionWithTimeoutsAndNonGCable(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	figure7(t, h)
	done := startAppAsync(h, "all")
	wait.For(t, "roots", func() bool { return running(h, "fox") })
	h.clock.BlockUntilWaiters(2) // the pull loop waits too: 2 = it + the StartApp sleeper
	h.clock.Advance(80 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if err := h.svc.StopApp("all"); err != nil {
		t.Fatal(err)
	}
	if running(h, "all") {
		t.Fatal("all still running")
	}
	// fb, tw, msnbc are GC candidates; fox is not GC-able.
	pending := h.svc.PendingGC()
	if len(pending) != 3 || pending[0] != "fb" || pending[1] != "msnbc" || pending[2] != "tw" {
		t.Fatalf("PendingGC = %v", pending)
	}
	if !running(h, "fb") || !running(h, "fox") {
		t.Fatal("candidates cancelled before their timeout")
	}
	// Fire the GC timeouts.
	h.clock.Advance(30 * time.Second)
	wait.For(t, "gc cancellations", func() bool {
		return !running(h, "fb") && !running(h, "tw") && !running(h, "msnbc")
	})
	if !running(h, "fox") {
		t.Fatal("non-GC-able fox cancelled")
	}
	if len(h.svc.PendingGC()) != 0 {
		t.Fatalf("PendingGC = %v", h.svc.PendingGC())
	}
}

func TestGCResurrection(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	figure7(t, h)
	// Bring up sn (and fb, tw).
	done := startAppAsync(h, "sn")
	wait.For(t, "roots", func() bool { return running(h, "fb") && running(h, "tw") })
	h.clock.BlockUntilWaiters(2) // the pull loop waits too: 2 = it + the StartApp sleeper
	h.clock.Advance(20 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	snJob := h.svc.RunningConfigs()["sn"]
	fbJob := h.svc.RunningConfigs()["fb"]

	if err := h.svc.StopApp("sn"); err != nil {
		t.Fatal(err)
	}
	if got := h.svc.PendingGC(); len(got) != 2 {
		t.Fatalf("PendingGC = %v", got)
	}
	// Restart sn before the GC timeout: fb and tw are rescued from the
	// cancellation queue without being restarted (§4.4).
	if err := h.svc.StartApp("sn"); err != nil {
		t.Fatal(err)
	}
	if got := h.svc.PendingGC(); len(got) != 0 {
		t.Fatalf("PendingGC after resurrection = %v", got)
	}
	if h.svc.RunningConfigs()["fb"] != fbJob {
		t.Fatal("fb was restarted instead of rescued")
	}
	if h.svc.RunningConfigs()["sn"] == snJob {
		t.Fatal("sn job id unchanged after restart")
	}
	// The rescued apps survive an elapsed timeout.
	h.clock.Advance(time.Hour)
	if !running(h, "fb") || !running(h, "tw") {
		t.Fatal("rescued app cancelled by stale timer")
	}
}

func TestStopAppErrors(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	figure7(t, h)
	if err := h.svc.StopApp("sn"); err == nil {
		t.Fatal("stopping a non-running config succeeded")
	}
	if err := h.svc.StartApp("ghost"); err == nil {
		t.Fatal("starting an unknown config succeeded")
	}
}

func TestDirectCancelKeepsDependencyViewConsistent(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	figure7(t, h)
	if err := h.svc.StartApp("fb"); err != nil {
		t.Fatal(err)
	}
	job := h.svc.RunningConfigs()["fb"]
	if job == ids.InvalidJob {
		t.Fatal("fb has no job")
	}
	// Cancel through the generic actuation rather than StopApp.
	if err := h.svc.CancelJob(job); err != nil {
		t.Fatal(err)
	}
	if running(h, "fb") {
		t.Fatal("dependency manager still lists fb running")
	}
	// fb can be started again afterwards.
	if err := h.svc.StartApp("fb"); err != nil {
		t.Fatal(err)
	}
	if !running(h, "fb") {
		t.Fatal("fb not running after restart")
	}
}

func TestStartAppIdempotentWhenRunning(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	figure7(t, h)
	if err := h.svc.StartApp("fb"); err != nil {
		t.Fatal(err)
	}
	job := h.svc.RunningConfigs()["fb"]
	if err := h.svc.StartApp("fb"); err != nil {
		t.Fatal(err)
	}
	if h.svc.RunningConfigs()["fb"] != job {
		t.Fatal("running target resubmitted")
	}
}

func TestGCFireSkipsReusedApp(t *testing.T) {
	h := rig(t, platform.Options{})
	h.start(t)
	figure7(t, h)
	// sn up, then stopped: fb/tw queued.
	done := startAppAsync(h, "sn")
	wait.For(t, "roots", func() bool { return running(h, "fb") && running(h, "tw") })
	h.clock.BlockUntilWaiters(2) // the pull loop waits too: 2 = it + the StartApp sleeper
	h.clock.Advance(20 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := h.svc.StopApp("sn"); err != nil {
		t.Fatal(err)
	}
	// Restart sn: rescues fb/tw. A later timeout tick must not cancel.
	if err := h.svc.StartApp("sn"); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(31 * time.Second)
	if !running(h, "fb") || !running(h, "tw") || !running(h, "sn") {
		t.Fatalf("configs = %v", h.svc.RunningConfigs())
	}
}
