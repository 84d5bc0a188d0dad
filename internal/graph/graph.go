// Package graph implements the in-memory stream graph representation the
// ORCA service maintains for every managed application (§3, third key
// concept): a queryable snapshot holding both the logical view (operators,
// composite containment, stream connections) and the physical view (PE
// partitions, hosts, PE states). Event handlers combine it with event
// contexts to disambiguate logical and physical layouts before actuating.
//
// A Graph is immutable after Build and safe for concurrent use. It owns
// only structure; a PE's host and state belong to the platform, and the
// graph reads them through the lookup Build was given, so they are as
// current as the platform's own tables. A topology change (a resize) is a
// new Graph.
package graph

import (
	"fmt"
	"sort"

	"streamorca/internal/adl"
	"streamorca/internal/ids"
)

// OperatorInfo describes one operator instance of a running job.
type OperatorInfo struct {
	Name      string
	Kind      string
	Composite string // enclosing composite instance, "" if top-level
	PE        ids.PEID
	Params    map[string]string
}

// CompositeInfo describes one composite operator instance.
type CompositeInfo struct {
	Name   string
	Kind   string
	Parent string
}

// PEInfo describes one processing element of a running job.
type PEInfo struct {
	ID        ids.PEID
	Index     int // partition index within the application's ADL
	Host      string
	Operators []string
	State     string
}

// Graph is the queryable representation of one running application.
type Graph struct {
	app   string
	job   ids.JobID
	live  func(ids.PEID) (host, state string)
	ops   map[string]*OperatorInfo
	comps map[string]*CompositeInfo
	pes   map[ids.PEID]*PEInfo // Host and State unset: live answers them
	conns []adl.Connection

	// Memoised containment chains: the §4.1 point that the filter API can
	// precompute what the SQL approach recomputes recursively per query.
	chains     map[string][]string
	kindChains map[string][]string
}

// Build constructs a graph from a validated ADL plus the PE ids SAM
// assigned at submission (partition index → global PE id). live reports
// a PE's current host and state; nil leaves both empty.
func Build(app *adl.Application, job ids.JobID, peIDs map[int]ids.PEID, live func(ids.PEID) (host, state string)) (*Graph, error) {
	g := &Graph{
		app:        app.Name,
		job:        job,
		live:       live,
		ops:        make(map[string]*OperatorInfo, len(app.Operators)),
		comps:      make(map[string]*CompositeInfo, len(app.Composites)),
		pes:        make(map[ids.PEID]*PEInfo, len(app.PEs)),
		conns:      append([]adl.Connection(nil), app.Connects...),
		chains:     make(map[string][]string, len(app.Operators)),
		kindChains: make(map[string][]string, len(app.Operators)),
	}
	for _, c := range app.Composites {
		g.comps[c.Name] = &CompositeInfo{Name: c.Name, Kind: c.Kind, Parent: c.Parent}
	}
	for _, pe := range app.PEs {
		id, ok := peIDs[pe.Index]
		if !ok {
			return nil, fmt.Errorf("graph: no PE id for partition %d of %s", pe.Index, app.Name)
		}
		g.pes[id] = &PEInfo{ID: id, Index: pe.Index, Operators: append([]string(nil), pe.Operators...)}
		for _, opName := range pe.Operators {
			src := app.OperatorByName(opName)
			if src == nil {
				return nil, fmt.Errorf("graph: PE %d names unknown operator %q", pe.Index, opName)
			}
			g.ops[opName] = &OperatorInfo{
				Name: src.Name, Kind: src.Kind, Composite: src.Composite,
				PE: id, Params: src.Params,
			}
		}
	}
	for name := range g.ops {
		g.chains[name] = app.CompositeChain(name)
		g.kindChains[name] = app.CompositeKindChain(name)
	}
	return g, nil
}

// App returns the application name.
func (g *Graph) App() string { return g.app }

// Job returns the job id the application runs as.
func (g *Graph) Job() ids.JobID { return g.job }

// Operator returns a copy of the named operator's info.
func (g *Graph) Operator(name string) (OperatorInfo, bool) {
	if op, ok := g.ops[name]; ok {
		return *op, true
	}
	return OperatorInfo{}, false
}

// PE returns a copy of the identified PE's info, with its current host
// and state.
func (g *Graph) PE(id ids.PEID) (PEInfo, bool) {
	p, ok := g.pes[id]
	if !ok {
		return PEInfo{}, false
	}
	cp := *p
	cp.Operators = append([]string(nil), p.Operators...)
	if g.live != nil {
		cp.Host, cp.State = g.live(id)
	}
	return cp, true
}

// OperatorNames returns every operator name, sorted.
func (g *Graph) OperatorNames() []string {
	names := make([]string, 0, len(g.ops))
	for n := range g.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PEIDs returns every PE id, sorted.
func (g *Graph) PEIDs() []ids.PEID {
	out := make([]ids.PEID, 0, len(g.pes))
	for id := range g.pes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OperatorsInPE answers "which stream operators reside in PE x?" (§4.2).
func (g *Graph) OperatorsInPE(id ids.PEID) []OperatorInfo {
	p, ok := g.pes[id]
	if !ok {
		return nil
	}
	out := make([]OperatorInfo, 0, len(p.Operators))
	for _, n := range p.Operators {
		if op, ok := g.ops[n]; ok {
			out = append(out, *op)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CompositesInPE answers "which composites reside in PE x?": the set of
// composite instances with at least one operator fused into the PE.
func (g *Graph) CompositesInPE(id ids.PEID) []string {
	p, ok := g.pes[id]
	if !ok {
		return nil
	}
	seen := make(map[string]bool)
	for _, n := range p.Operators {
		for _, comp := range g.chains[n] {
			seen[comp] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// EnclosingComposite answers "what is the enclosing composite operator
// instance name for operator y?".
func (g *Graph) EnclosingComposite(opName string) (string, bool) {
	op, ok := g.ops[opName]
	if !ok || op.Composite == "" {
		return "", false
	}
	return op.Composite, true
}

// PEOfOperator answers "what is the PE id for operator instance y?".
func (g *Graph) PEOfOperator(opName string) (ids.PEID, bool) {
	op, ok := g.ops[opName]
	if !ok {
		return ids.InvalidPE, false
	}
	return op.PE, true
}

// HostOfPE returns the host a PE is currently placed on.
func (g *Graph) HostOfPE(id ids.PEID) (string, bool) {
	p, ok := g.PE(id)
	return p.Host, ok
}

// CompositeChain returns the composite instances enclosing the operator,
// innermost first.
func (g *Graph) CompositeChain(opName string) []string {
	return append([]string(nil), g.chains[opName]...)
}

// CompositeKindChain returns the composite types enclosing the operator,
// innermost first.
func (g *Graph) CompositeKindChain(opName string) []string {
	return append([]string(nil), g.kindChains[opName]...)
}

// InCompositeType reports whether the operator is transitively contained
// in a composite instance of the given type. This is the memoised check
// behind composite-type scope filters (§4.1).
func (g *Graph) InCompositeType(opName, kind string) bool {
	for _, k := range g.kindChains[opName] {
		if k == kind {
			return true
		}
	}
	return false
}

// Upstream returns the names of operators feeding opName.
func (g *Graph) Upstream(opName string) []string {
	var out []string
	for _, c := range g.conns {
		if c.ToOp == opName {
			out = append(out, c.FromOp)
		}
	}
	sort.Strings(out)
	return out
}

// Downstream returns the names of operators fed by opName.
func (g *Graph) Downstream(opName string) []string {
	var out []string
	for _, c := range g.conns {
		if c.FromOp == opName {
			out = append(out, c.ToOp)
		}
	}
	sort.Strings(out)
	return out
}
