package lint

import "testing"

// Each analyzer runs over its fixture package under testdata/src; the
// fixture's want comments pin both the positive diagnostics and, by
// their absence, the negative cases.
func testFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	problems, err := CheckFixture(".", []*Analyzer{a}, fixture)
	if err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestParamDrift(t *testing.T)     { testFixture(t, ParamDrift, "paramdrift") }
func TestMetricKey(t *testing.T)      { testFixture(t, MetricKey, "metrickey") }
func TestActuationCheck(t *testing.T) { testFixture(t, ActuationCheck, "actuationcheck") }
