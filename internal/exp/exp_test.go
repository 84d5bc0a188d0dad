package exp

import (
	"fmt"
	"strings"
	"testing"
)

// series parses an outcome's CSV rows (header skipped) into numbers.
func series(t *testing.T, out *Outcome) [][]float64 {
	t.Helper()
	var rows [][]float64
	for _, line := range out.CSV[1:] {
		var row []float64
		for _, cell := range strings.Split(line, ",") {
			var v float64
			if _, err := fmt.Sscan(cell, &v); err != nil {
				t.Fatalf("series row %q: %v", line, err)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestSentimentScenario asserts Figure 8's shape: the unknown/known
// ratio starts below the threshold, crosses it after the
// cause-distribution shift, the orchestrator triggers the batch job, and
// after the model refresh the ratio stabilises below 1.0 with the new
// cause in the model.
func TestSentimentScenario(t *testing.T) {
	out, err := sentiment(Params{})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "sentiment", out)
	m, rows := out.Metrics, series(t, out) // epoch, ratio
	if m["cross_epoch"] == 0 || m["recover_epoch"] <= m["cross_epoch"] {
		t.Fatalf("milestones: %v", m)
	}
	// Early epochs (before the shift propagates) sit below the threshold.
	sawLowBeforeCross := false
	for _, row := range rows {
		if row[0] < m["cross_epoch"] && row[1] < 1.0 {
			sawLowBeforeCross = true
		}
	}
	if !sawLowBeforeCross {
		t.Fatalf("no pre-shift low-ratio measurements: %v", out.CSV[:min(6, len(out.CSV))])
	}
	if m["triggers"] < 1 || m["model_version"] < 2 {
		t.Fatalf("no recomputation: %v", m)
	}
	if !strings.Contains(strings.Join(out.Lines, "\n"), "antenna") {
		t.Fatalf("recomputed model misses the new cause: %v", out.Lines)
	}
	// The tail of the series (post-recovery) stays below 1.0.
	if tail := rows[len(rows)-1]; tail[1] >= 1.0 {
		t.Fatalf("tail ratio = %v", tail[1])
	}
}

// TestFailoverScenario asserts Figure 9's shape: failover to the oldest
// backup (the scenario itself checks the replicas sit on distinct
// hosts), an output gap for the failed replica, and a window refill that
// takes on the order of the window duration.
func TestFailoverScenario(t *testing.T) {
	out, err := failover(Params{})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "failover", out)
	m, windowMs := out.Metrics, ms(trendWindow)
	killed, promoted := int(m["killed_replica"]), int(m["promoted_replica"])
	if killed == promoted {
		t.Fatalf("active replica unchanged: %d", killed)
	}
	// The promoted replica is the oldest healthy one: replica 1 when 0
	// was active and killed (submission order ties broken by age).
	if killed == 0 && promoted != 1 {
		t.Fatalf("promoted replica %d, want the oldest backup (1)", promoted)
	}
	if m["failovers"] != 1 || m["restarts"] != 1 {
		t.Fatalf("failovers=%v restarts=%v", m["failovers"], m["restarts"])
	}
	if m["failover_ms"] <= 0 || m["failover_ms"] > windowMs {
		t.Fatalf("failover latency %vms out of range", m["failover_ms"])
	}
	// Refill takes roughly a window: at least half of it, definitely
	// longer than the failover itself.
	if m["refill_ms"] < windowMs/2 {
		t.Fatalf("window refilled implausibly fast: %vms (window %vms)", m["refill_ms"], windowMs)
	}
	if m["refill_ms"] <= m["failover_ms"] {
		t.Fatal("refill faster than failover")
	}
	// Right after restart the failed replica's window must have been
	// observed smaller than the healthy one's (the Figure 9b dashed box).
	// Columns: elapsed, active, win_r0..2, out_r0..2.
	sawSmall := false
	for _, row := range series(t, out) {
		if kc, hc := row[2+killed], row[2+promoted]; kc >= 0 && hc > 0 && kc < hc/2 {
			sawSmall = true
		}
	}
	if !sawSmall {
		t.Fatal("never observed the refilling window below half of healthy")
	}
}

// TestCompositionScenario asserts Figure 10's shape: the application
// graph expands with C3 jobs per attribute and contracts back to the
// base set.
func TestCompositionScenario(t *testing.T) {
	out, err := composition(Params{})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "composition", out)
	m := out.Metrics
	if m["base_jobs"] != 5 || m["max_jobs"] < 6 || m["final_jobs"] != 5 {
		t.Fatalf("jobs: %v", m)
	}
	if m["submissions"] < 3 || m["cancellations"] < 3 {
		t.Fatalf("subs/cancels: %v", m)
	}
	if m["store_profiles"] == 0 {
		t.Fatal("profile store empty")
	}
	// The series must actually show expansion and contraction.
	var expanded, contracted bool
	for _, row := range series(t, out) { // elapsed, running jobs
		if row[1] > m["base_jobs"] {
			expanded = true
		}
		if expanded && row[1] == m["base_jobs"] {
			contracted = true
		}
	}
	if !expanded || !contracted {
		t.Fatalf("series lacks expansion/contraction: %v", out.CSV)
	}
}

// TestLocScenario: the §5 size table has one row per use case, each
// naming a positive line count for our routine.
func TestLocScenario(t *testing.T) {
	t.Chdir("../..") // loc reads the policy sources relative to the repository root
	out, err := loc(Params{})
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "loc", out)
	if len(out.CSV) != 4 || out.CSV[0] != "use_case,paper_cpp_loc,our_go_policy_loc" {
		t.Fatalf("table = %q", out.CSV)
	}
	for _, row := range out.CSV[1:] {
		cells := strings.Split(row, ",")
		if len(cells) != 3 || atoi(t, cells[1]) <= 0 || atoi(t, cells[2]) <= 0 {
			t.Fatalf("row %q", row)
		}
	}
}
