package exp

import "testing"

// TestRecoveryScenario pins the recovery smoke against the scenario's
// contract: a checkpointed aggregation PE restarted by the routine
// resumes past its checkpointed window fill (a cold restart would resume
// at 1). The pre-failure maximum is only bounded from below — tuples may
// race between the capture and the kill, so the restored window
// legitimately re-emits a count the dead PE already emitted.
func TestRecoveryScenario(t *testing.T) {
	out, err := recovery(Params{StoreDir: t.TempDir()}) // exercise the persistent store end to end
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "recovery", out)
	m := out.Metrics
	if m["count_at_checkpoint"] < 100 {
		t.Fatalf("checkpointed too early: count %v < default warm fill 100", m["count_at_checkpoint"])
	}
	if m["first_post_restart"] <= m["count_at_checkpoint"] {
		t.Fatalf("restarted cold: first post-restart %v <= checkpointed %v", m["first_post_restart"], m["count_at_checkpoint"])
	}
	if m["max_pre_failure"] < m["count_at_checkpoint"] {
		t.Fatalf("pre-failure max %v below the checkpointed fill %v", m["max_pre_failure"], m["count_at_checkpoint"])
	}
	if m["restores"] < 1 {
		t.Fatalf("restores = %v", m["restores"])
	}
}
