// Package wait is the one bounded wait the tests and the scenarios
// share. It imports only the standard library, so the in-package tests
// of the packages below the platform (pe, transport, vclock) can use
// it, and it does not import testing, so the scenario runner that calls
// Until does not link it.
package wait

import "time"

// Deadline is how long For and Within wait before failing the test: 10 s,
// scaled threefold under the race detector, whose instrumented code runs
// several times slower.
const Deadline = raceScale * 10 * time.Second

// TB is the part of testing.TB the waits use.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Until polls cond every step until it holds or timeout passes, and
// reports whether it held.
func Until(timeout, step time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(step)
	}
	return cond()
}

// For fails the test when cond does not hold within Deadline.
func For(tb TB, what string, cond func() bool) {
	tb.Helper()
	if !Until(Deadline, time.Millisecond, cond) {
		tb.Fatalf("timed out after %v waiting for %s", Deadline, what)
	}
}

// Within runs fn on its own goroutine and fails the test when it has not
// returned within Deadline.
func Within(tb TB, what string, fn func()) {
	tb.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(Deadline):
		tb.Fatalf("timed out after %v: %s", Deadline, what)
	}
}
