package compiler

import (
	"fmt"
	"sort"

	"streamorca/internal/adl"
)

// partition fuses operators into PEs according to the fusion mode and the
// per-operator constraints (colocation tags, isolation, pools). The result
// is deterministic for a given builder program.
func partition(ops []*OpHandle, opts Options) ([]adl.PE, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("compiler: application has no operators")
	}
	uf := newUnionFind(len(ops))

	// Colocation tags always fuse, regardless of mode.
	tagRoot := make(map[string]int)
	for i, h := range ops {
		if h.coloc == "" {
			continue
		}
		if h.isolate {
			return nil, fmt.Errorf("compiler: operator %q is both isolated and colocated (tag %q)", h.name, h.coloc)
		}
		if r, ok := tagRoot[h.coloc]; ok {
			uf.union(r, i)
		} else {
			tagRoot[h.coloc] = i
		}
	}

	switch opts.Fusion {
	case FuseByTag, FuseNone:
		// Nothing further: untagged operators stay alone.
	case FuseAll:
		// Fuse everything that is not isolated into one PE.
		first := -1
		for i, h := range ops {
			if h.isolate {
				continue
			}
			if first < 0 {
				first = i
			} else {
				uf.union(first, i)
			}
		}
	default:
		return nil, fmt.Errorf("compiler: unknown fusion mode %d", opts.Fusion)
	}

	// Collect groups deterministically: order by the smallest operator
	// position in the builder program.
	groups := make(map[int][]int)
	for i := range ops {
		r := uf.find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(a, b int) bool {
		return minOf(groups[roots[a]]) < minOf(groups[roots[b]])
	})

	var pes []adl.PE
	for idx, r := range roots {
		members := groups[r]
		sort.Ints(members)
		pe := adl.PE{Index: idx}
		for _, m := range members {
			h := ops[m]
			if h.isolate && len(members) > 1 {
				return nil, fmt.Errorf("compiler: isolated operator %q fused with %d others", h.name, len(members)-1)
			}
			pe.Operators = append(pe.Operators, h.name)
			if h.pool != "" {
				if pe.Pool != "" && pe.Pool != h.pool {
					return nil, fmt.Errorf("compiler: PE %d has conflicting pools %q and %q", idx, pe.Pool, h.pool)
				}
				pe.Pool = h.pool
			}
			if h.isolatePE {
				pe.IsolatePE = true
			}
		}
		pes = append(pes, pe)
	}
	return pes, nil
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// unionFind is a standard disjoint-set with path compression.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(i int) int {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if rb < ra {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}
