package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestLoadtestOpenLoopSmoke runs a shrunk open-loop load test end to
// end: offered == delivered (no loss without chaos), latency recorded
// for every tuple, throughput windows populated, and the hash
// partition visibly carrying the Zipf hot keys.
func TestLoadtestOpenLoopSmoke(t *testing.T) {
	p := Params{Seed: 11, Rate: 400, Duration: 600 * time.Millisecond, Keys: 2000, Skew: -1}
	if raceEnabled {
		p.Rate = 200
	}
	out, err := loadtest(p)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "loadtest", out)
	m := out.Metrics
	offered := float64(atoi(t, det(t, out, "offered")))
	if m["delivered"] == 0 || m["delivered"] != offered {
		t.Fatalf("delivered %v of %v offered", m["delivered"], offered)
	}
	if m["lost"] != 0 {
		t.Fatalf("lost %v without chaos", m["lost"])
	}
	if m["p50_ms"] <= 0 {
		t.Fatalf("p50 = %vms, want > 0", m["p50_ms"])
	}
	if m["p999_ms"] < m["p50_ms"] || m["max_ms"] < m["p999_ms"] {
		t.Fatalf("percentiles not ordered: p50=%v p999=%v max=%v", m["p50_ms"], m["p999_ms"], m["max_ms"])
	}
	if m["sustained_tps"] <= 0 {
		t.Fatalf("sustained rate %v, want > 0", m["sustained_tps"])
	}
	if m["max_window_tps"] <= 0 {
		t.Fatalf("no throughput windows recorded: max %v", m["max_window_tps"])
	}
	if sum := m["tuples_w0"] + m["tuples_w1"] + m["tuples_w2"]; sum != m["delivered"] {
		t.Fatalf("workers processed %v, delivered %v — partitioned path leaks", sum, m["delivered"])
	}
	if m["hot_key_share"] < 0.2 {
		t.Fatalf("hot-key share %v implausibly low for the default skew", m["hot_key_share"])
	}
	if fp := det(t, out, "fingerprint"); fp != "" {
		t.Fatalf("pure load run has a chaos fingerprint %q", fp)
	}
	if det(t, out, "seed") != "11" {
		t.Fatalf("deterministic line names the wrong seed: %q", out.Deterministic)
	}
}

// TestLoadtestClosedLoopSmoke drives the same pipeline with the
// closed-loop (users + think time) driver.
func TestLoadtestClosedLoopSmoke(t *testing.T) {
	p := Params{
		Seed: 13, Users: 8, Think: 10 * time.Millisecond,
		Duration: 500 * time.Millisecond, Keys: 1000, Skew: -1,
	}
	out, err := loadtest(p)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "loadtest", out)
	offered := int64(atoi(t, det(t, out, "offered")))
	if delivered := int64(out.Metrics["delivered"]); delivered == 0 || delivered != offered {
		t.Fatalf("delivered %d of %d offered", delivered, offered)
	}
	if bound := int64(p.Users) * (int64(p.Duration/p.Think) + 2); offered > bound {
		t.Fatalf("offered %d exceeds closed-loop bound %d", offered, bound)
	}
	// The offered line states the measured rate and the mode, not the
	// open-loop rate knob a closed-loop run never read.
	line := out.Lines[0]
	if strings.HasPrefix(line, "offered 0 ") || !strings.Contains(line, "(closed loop, 8 users, think 10ms)") {
		t.Fatalf("offered line %q: want a measured rate and the closed-loop mode", line)
	}
}

// shrunkChaosLoad runs a chaos-load small enough for tier-1.
func shrunkChaosLoad(seed int64, rate float64, d time.Duration, keys, faults int, window time.Duration) (*Outcome, error) {
	return runLoad("chaos-load", Params{Seed: seed, Rate: rate, Duration: d, Keys: keys, Skew: -1}, faults, window)
}

// TestChaosLoadSmoke layers a seeded fault schedule over the load run:
// the schedule must apply, the sweep must recover every PE (runLoad
// errors otherwise), and the meter must keep a continuous record
// across the kills.
func TestChaosLoadSmoke(t *testing.T) {
	rate := 300.0
	if raceEnabled {
		rate = 150
	}
	out, err := shrunkChaosLoad(5, rate, 1200*time.Millisecond, 2000, 8, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "chaos-load", out)
	m := out.Metrics
	if det(t, out, "fingerprint") == "" {
		t.Fatal("chaos-load run reported no schedule fingerprint")
	}
	if m["faults_applied"] == 0 {
		t.Fatal("no faults applied")
	}
	if m["delivered"] == 0 || m["p50_ms"] <= 0 {
		t.Fatalf("no latency record across chaos: delivered %v, p50 %v", m["delivered"], m["p50_ms"])
	}
	if m["lost"] < 0 {
		t.Fatalf("negative loss %v: meter double-counted", m["lost"])
	}
}

// TestChaosLoadDeterministicSchedule pins the regression-gate contract:
// two same-seed runs inject the identical schedule and offer the
// identical workload — the deterministic line (seed, offered count,
// hot-key share, fingerprint) matches — even though wall-clock metrics
// differ.
func TestChaosLoadDeterministicSchedule(t *testing.T) {
	run := func() *Outcome {
		out, err := shrunkChaosLoad(42, 250, 800*time.Millisecond, 1000, 6, 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if det(t, a, "fingerprint") == "" || det(t, a, "offered") == "0" || a.Deterministic != b.Deterministic {
		t.Fatalf("deterministic lines diverge for one seed:\n%s\n%s", a.Deterministic, b.Deterministic)
	}
}

// TestEventMakerHotKeyShare pins the analytic top-1% traffic share of
// the seeded key spaces the loadtest/chaos-load and fission scenarios
// default to — the hotKeyShare their deterministic lines print.
func TestEventMakerHotKeyShare(t *testing.T) {
	for _, c := range []struct {
		keys int
		want string
	}{{50000, "0.7246"}, {20000, "0.6840"}} {
		_, share := eventMaker(42, c.keys, 1.1)
		if got := fmt.Sprintf("%.4f", share); got != c.want {
			t.Fatalf("top-1%% share of %d Zipf-1.1 keys = %s, want %s", c.keys, got, c.want)
		}
	}
}
