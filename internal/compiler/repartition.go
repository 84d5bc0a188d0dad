package compiler

import (
	"fmt"

	"streamorca/internal/adl"
)

// Repartition recompiles an application's PE partitioning from its ADL —
// the §4.3 capability the paper calls "trivial to implement by ...
// triggering application recompilation" but leaves out of its own
// implementation. The logical graph (operators, composites, connections,
// exports/imports) is preserved; only the operator→PE assignment changes.
// Each operator keeps the host pool of the partition it previously lived
// in, so placement intent survives the rewrite.
//
// Repartitioning applies to the ADL artifact: like MakeExclusive, it must
// happen before submission. Running jobs are unaffected.
func Repartition(app *adl.Application, opts Options) (*adl.Application, error) {
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: repartition input: %w", err)
	}
	out := app.Clone()

	poolOf := make(map[string]string)
	isolateHost := make(map[string]bool)
	for _, pe := range app.PEs {
		for _, op := range pe.Operators {
			poolOf[op] = pe.Pool
			isolateHost[op] = pe.IsolatePE
		}
	}

	handles := make([]*OpHandle, 0, len(out.Operators))
	for i := range out.Operators {
		op := &out.Operators[i]
		handles = append(handles, &OpHandle{
			name:      op.Name,
			kind:      op.Kind,
			pool:      poolOf[op.Name],
			isolatePE: isolateHost[op.Name],
		})
	}
	pes, err := partition(handles, opts)
	if err != nil {
		return nil, fmt.Errorf("compiler: repartition: %w", err)
	}
	out.PEs = pes
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: repartition produced invalid ADL: %w", err)
	}
	return out, nil
}
