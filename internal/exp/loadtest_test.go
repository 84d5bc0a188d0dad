package exp

import (
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
	meta, m := out.Report.Meta, out.Report.Metrics
	offered := float64(atoi(t, meta["offered"]))
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
		t.Fatalf("hot-key share %v implausibly low for skew %v", m["hot_key_share"], meta["skew"])
	}
	if fp, ok := meta["fingerprint"]; ok {
		t.Fatalf("pure load run has a chaos fingerprint %q", fp)
	}
	if out.Report.Seed != 11 {
		t.Fatalf("report identity wrong: %+v", out.Report)
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
	offered := int64(atoi(t, out.Report.Meta["offered"]))
	if delivered := int64(out.Report.Metrics["delivered"]); delivered == 0 || delivered != offered {
		t.Fatalf("delivered %d of %d offered", delivered, offered)
	}
	if bound := int64(p.Users) * (int64(p.Duration/p.Think) + 2); offered > bound {
		t.Fatalf("offered %d exceeds closed-loop bound %d", offered, bound)
	}
	if out.Report.Meta["users"] != "8" || out.Report.Meta["think"] != "10ms" {
		t.Fatalf("closed-loop config not echoed: %v", out.Report.Meta)
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
	meta, m := out.Report.Meta, out.Report.Metrics
	if meta["fingerprint"] == "" {
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
	if a.Report.Meta["fingerprint"] == "" || a.Deterministic != b.Deterministic {
		t.Fatalf("deterministic lines diverge for one seed:\n%s\n%s", a.Deterministic, b.Deterministic)
	}
	if a.Report.Meta["offered"] != b.Report.Meta["offered"] {
		t.Fatalf("offered counts diverge for one seed: %v vs %v", a.Report.Meta["offered"], b.Report.Meta["offered"])
	}
}
