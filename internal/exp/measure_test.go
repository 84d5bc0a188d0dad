package exp

import (
	"testing"
	"time"
)

// TestOverheadScenario asserts the §3 hot-path claim's shape: attaching
// an aggressively pulling orchestrator costs little pipeline throughput
// (well under 2x; typically a few percent — the scenario's own bound is
// generous to absorb CI noise), and the orchestrator really consumed
// metric events meanwhile.
func TestOverheadScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput experiment")
	}
	out, err := runOverhead(200_000, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "overhead", out)
	// runOverhead itself fails a run whose orchestrator halved the
	// throughput or consumed no metric events.
	if m := out.Metrics; m["baseline_tps"] <= 0 || m["with_orca_tps"] <= 0 {
		t.Fatalf("throughputs: %v", m)
	}
}

// TestReactionScenario asserts the failure-reaction ordering: platform
// auto-restart <= orchestrated restart <= orchestrated restart with a
// slow handler, and the slow-handler penalty reflects the injected 5 ms.
func TestReactionScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("latency experiment")
	}
	out, err := runReaction(5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "reaction", out)
	m := out.Metrics
	auto, orca, slow, delay := m["auto_restart_ms"], m["orca_restart_ms"], m["orca_slow_handler_ms"], m["handler_delay_ms"]
	if auto <= 0 || orca <= 0 || slow <= 0 || delay <= 0 {
		t.Fatalf("latencies: %v", m)
	}
	if slow < orca+delay/2 {
		t.Fatalf("handler delay not reflected: noop=%vms slow=%vms (injected %vms)", orca, slow, delay)
	}
	if orca > auto*10+delay {
		t.Fatalf("orchestrated restart implausibly slow: auto=%vms orca=%vms", auto, orca)
	}
}
