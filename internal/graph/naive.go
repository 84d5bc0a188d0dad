package graph

// This file implements the "SQL approach" the paper contrasts with the
// scope-filter API in §4.1: evaluating composite containment with a
// recursive query (the WITH CompPairs(...) UNION ALL construction). It is
// used as the baseline for experiment E7 — it must return exactly the same
// answers as the memoised filter path, while recomputing the transitive
// containment closure on every evaluation, as a recursive SQL query over
// instance tables would.

// NaiveQuery mirrors the WHERE clause of the paper's example query: an
// operator-metric selection by metric name, operator kinds (disjunctive),
// and composite kinds (disjunctive).
type NaiveQuery struct {
	MetricName     string
	OperatorKinds  []string
	CompositeKinds []string
}

// compPair is one row of the recursive CompPairs CTE: a composite instance
// together with one of its (transitive) ancestors, including itself.
type compPair struct {
	comp   string
	parent string
}

// NaiveMatch evaluates the query against a single candidate metric
// (operator instance + metric name) the way the recursive SQL would:
// rebuild CompPairs from the instance tables, then join. It deliberately
// performs no memoisation.
func NaiveMatch(g *Graph, opName, metricName string, q NaiveQuery) bool {
	if q.MetricName != "" && metricName != q.MetricName {
		return false
	}
	op, ok := g.ops[opName]
	if !ok {
		return false
	}
	if len(q.OperatorKinds) > 0 && !containsString(q.OperatorKinds, op.Kind) {
		return false
	}
	if len(q.CompositeKinds) == 0 {
		return true
	}
	// Recursive CTE: seed with (comp, parent) base rows, iterate UNION ALL
	// until fixpoint, exactly as CompPairs does.
	var pairs []compPair
	for _, c := range g.comps {
		pairs = append(pairs, compPair{comp: c.Name, parent: c.Name})
		if c.Parent != "" {
			pairs = append(pairs, compPair{comp: c.Name, parent: c.Parent})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range pairs {
			anc, ok := g.comps[p.parent]
			if !ok || anc.Parent == "" {
				continue
			}
			next := compPair{comp: p.comp, parent: anc.Parent}
			if !containsPair(pairs, next) {
				pairs = append(pairs, next)
				changed = true
			}
		}
	}
	// Final join: the operator's direct composite must reach, via the
	// closure, an ancestor whose kind is one of the requested kinds.
	if op.Composite == "" {
		return false
	}
	for _, p := range pairs {
		if p.comp != op.Composite {
			continue
		}
		if anc, ok := g.comps[p.parent]; ok && containsString(q.CompositeKinds, anc.Kind) {
			return true
		}
	}
	return false
}

func containsString(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

func containsPair(list []compPair, v compPair) bool {
	for _, p := range list {
		if p == v {
			return true
		}
	}
	return false
}
