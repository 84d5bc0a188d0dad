package exp

import (
	"fmt"
	"os"
	"strings"
)

// loc reports §5's code-size comparison: each adaptation routine against
// the paper's C++ policy for the same use case (114 / 196 / 139 lines),
// counting non-blank, non-comment lines of the source files under the
// working directory.
func loc(Params) (*Outcome, error) {
	count := func(paths ...string) (int, error) {
		total := 0
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				return 0, fmt.Errorf("loc: %w (run from the repository root)", err)
			}
			for _, line := range strings.Split(string(data), "\n") {
				if s := strings.TrimSpace(line); s != "" && !strings.HasPrefix(s, "//") {
					total++
				}
			}
		}
		return total, nil
	}
	out := &Outcome{
		CSV: []string{"use_case,paper_cpp_loc,our_go_policy_loc"},
		OK:  "loc OK: each routine is a few hundred lines beside its application",
		// Our line counts, keyed by paper section.
		Metrics: map[string]float64{},
	}
	for _, row := range []struct {
		useCase string
		paper   int
		policy  []string
	}{
		{"5.1 sentiment / model recompute", 114, []string{"internal/policies/sentiment.go"}},
		{"5.2 trend calculator / failover", 196, []string{"internal/policies/failover.go", "internal/policies/restart.go"}},
		{"5.3 social media / composition", 139, []string{"internal/policies/composition.go"}},
	} {
		n, err := count(row.policy...)
		if err != nil {
			return nil, err
		}
		out.CSV = append(out.CSV, fmt.Sprintf("%s,%d,%d", row.useCase, row.paper, n))
		out.Metrics["policy_loc_"+row.useCase[:3]] = float64(n)
	}
	appLoc, err := count("internal/apps/operators.go", "internal/apps/builders.go")
	if err != nil {
		return nil, err
	}
	out.printf("shared application code (all three use cases): %d Go lines", appLoc)
	out.Metrics["shared_app_loc"] = float64(appLoc)
	return out, nil
}
