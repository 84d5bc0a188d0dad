package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"streamorca/internal/wait"
)

// TestFissionScenarioSmoke runs a shrunk elastic-fission scenario end
// to end: the capacity probes must show the configured speedup, the
// adaptation routine (not the driver) must widen the region at least
// once under the skewed load, and the report must carry consistent
// widths and per-replica traffic shares.
func TestFissionScenarioSmoke(t *testing.T) {
	scale := fissionScale{probeRate: 3000, probeDuration: 300 * time.Millisecond, maxWidth: 2, minSpeedup: 1.3}
	if wait.Race {
		scale.probeRate = 1500
	}
	out, err := runFission(Params{Seed: 7, Keys: 5000, Duration: time.Second, Skew: -1}, scale)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, "fission", out)
	m := out.Metrics
	if m["speedup_x"] < scale.minSpeedup {
		t.Fatalf("speedup %.2fx, want >= %.2fx", m["speedup_x"], scale.minSpeedup)
	}
	widenings, finalWidth := int(m["adaptive_widenings"]), int(m["final_width"])
	if widenings < 1 || finalWidth < 2 {
		t.Fatalf("routine never widened: %d widenings, final width %d", widenings, finalWidth)
	}
	// The printed width-change log is sequential and ends at the final
	// width.
	width, changes := 1, 0
	for _, line := range out.Lines {
		var from, to int
		if _, err := fmt.Sscanf(line, "  width %d -> %d", &from, &to); err != nil {
			continue
		}
		if from != width || to != width+1 {
			t.Fatalf("non-sequential width change %q (at width %d)", line, width)
		}
		width, changes = to, changes+1
	}
	if changes != widenings || width != finalWidth {
		t.Fatalf("log has %d changes ending at width %d for %d widenings, final width %d",
			changes, width, widenings, finalWidth)
	}
	if m["delivered"] == 0 {
		t.Fatalf("nothing delivered in the adaptive phase")
	}
	shareSum := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, "share_") {
			shareSum += v
		}
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Fatalf("replica shares sum to %v, want 1", shareSum)
	}
}
