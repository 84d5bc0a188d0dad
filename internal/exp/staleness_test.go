package exp

import "testing"

// TestStalenessFailoverScenario pins the checkpoint-aware failover
// smoke: the staleness gate refreshes the active replica's snapshot,
// the fresher-snapshot backup wins the promotion over the stale one,
// and it serves from restored window state.
func TestStalenessFailoverScenario(t *testing.T) {
	out, err := stalenessFailover(Params{StoreDir: t.TempDir()}) // exercise the persistent store end to end
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "staleness-failover", out)
	m := out.Metrics
	if m["promoted_replica"] != 2 {
		t.Fatalf("promotion = %v", m)
	}
	if m["stale_age_ms"] <= m["fresh_age_ms"] {
		t.Fatalf("staleness gap missing: %v", m)
	}
	if m["snapshot_refreshes"] < 1 || m["pre_promotion_checkpoints"] < 1 {
		t.Fatalf("checkpoint actuations missing: %v", m)
	}
	if m["promoted_state_restores"] < 1 {
		t.Fatalf("promoted replica never restored: %v", m)
	}
}
