package exp

import (
	"testing"
	"time"

	"streamorca/internal/chaos"
)

// deterministicKinds restricts the schedule to the kinds whose applied
// counts cannot depend on wall-clock races: PE kills (the runner waits
// out concurrent restarts) and one-shot store faults. Host outages and
// latency injections stay covered by TestChaosSmoke below and the
// chaos package's own tests.
var deterministicKinds = []chaos.Kind{
	chaos.KillPE, chaos.CkptFail, chaos.CkptTear, chaos.CkptDrop,
}

// TestChaosDeterminism: two runs with one seed inject the same fault
// schedule (identical fingerprints and deterministic lines) and apply
// the same events, and neither loses a PE (runChaos errors on a lost
// one).
func TestChaosDeterminism(t *testing.T) {
	first, err := runChaos(Params{Seed: 42}, deterministicKinds)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	second, err := runChaos(Params{Seed: 42}, deterministicKinds)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	checkOutcome(t, "chaos", first)
	if first.Deterministic == "" || first.Deterministic != second.Deterministic {
		t.Fatalf("deterministic lines diverged: %q vs %q", first.Deterministic, second.Deterministic)
	}
	if det(t, first, "fingerprint") == "" {
		t.Fatalf("no schedule fingerprint: %q", first.Deterministic)
	}
	a, b := first.Metrics, second.Metrics
	if a["faults_applied"] != b["faults_applied"] || a["faults_skipped"] != b["faults_skipped"] {
		t.Fatalf("applied/skipped diverged: %v vs %v", a, b)
	}
	if a["faults_applied"] == 0 {
		t.Fatalf("no faults applied: %v", a)
	}
}

// TestChaosSmoke runs the full fault mix — host outages included — on
// a filesystem-backed store and checks the platform comes back whole.
func TestChaosSmoke(t *testing.T) {
	out, err := chaosScenario(Params{Seed: 7, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatalf("runChaos: %v", err)
	}
	checkOutcome(t, "chaos", out)
	m := out.Metrics
	if m["faults_applied"]+m["faults_skipped"] < chaosFaults {
		t.Fatalf("schedule not fully driven: %v", m)
	}
	if m["restarts_attempted"] == 0 {
		t.Fatalf("no restarts journalled: %v", m)
	}
	if m["final_count"] == 0 {
		t.Fatalf("no output: %v", m)
	}
}

// TestChaosScheduleFingerprintPinned: the seed-42 schedule the chaos
// scenario generates (16 faults over 800 ms on 3 hosts and 3 PEs, store
// faults included) has kept this fingerprint since the scenario first
// shipped; a change to the generator that moves it changes every seeded
// run's fault sequence.
func TestChaosScheduleFingerprintPinned(t *testing.T) {
	schedule := chaos.Generate(42, chaos.GenOptions{
		Duration: 800 * time.Millisecond, Count: chaosFaults, Hosts: 3, PEs: 3, Store: true,
	})
	if got := schedule.Fingerprint(); got != "5113df9f824da44f" {
		t.Fatalf("seed-42 chaos schedule fingerprint %s, want 5113df9f824da44f", got)
	}
}
