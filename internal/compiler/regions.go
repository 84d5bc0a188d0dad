package compiler

import (
	"fmt"
	"strconv"

	"streamorca/internal/adl"
	"streamorca/internal/opapi"
	"streamorca/internal/tuple"
)

// The kinds the compiler inserts around a parallel region. They name the
// built-in library's Split and Merge operators (validated against the
// registry like every other kind), and the region contract depends on
// Split's hash mode routing tuples with opapi.PartitionOf — the same
// function SplitState implementations partition their keys with.
const (
	regionSplitKind = "Split"
	regionMergeKind = "Merge"
)

// regionOpName builds the instance name of one of a region's expanded
// operators: "<declared name>/split", "/merge", or a replica index.
// The "/" separator cannot collide with builder-declared names, which
// qualify composites with ".".
func regionOpName(region, member string) string { return region + "/" + member }

// expandRegions replaces every operator declared Parallel with its
// region expansion: a hash split on the kind's partition-key attribute,
// width replicas of the declared operator, and a merge — each isolated
// in its own PE so SAM can restart and resize them independently.
// Stream connections to and from the declared operator are rewired to
// the split and merge, so neighbours never know the region exists.
func (b *AppBuilder) expandRegions(reg *opapi.Registry) {
	if len(b.errs) > 0 {
		return // name/handle errors make rewiring unreliable
	}
	var out []*OpHandle
	for _, h := range b.ops {
		if h.parallel == 0 {
			out = append(out, h)
			continue
		}
		region, err := b.expandRegion(h, reg)
		if err != nil {
			b.errs = append(b.errs, err)
			out = append(out, h)
			continue
		}
		out = append(out, region...)
	}
	b.ops = out
}

// expandRegion expands one declared operator, returning the replacement
// handles in pipeline order (split, replicas, merge).
func (b *AppBuilder) expandRegion(h *OpHandle, reg *opapi.Registry) ([]*OpHandle, error) {
	if h.parallel < 1 {
		return nil, fmt.Errorf("compiler: operator %q: parallel width %d < 1", h.name, h.parallel)
	}
	model := reg.Model(h.kind)
	if model == nil || model.PartitionKey == "" {
		return nil, fmt.Errorf("compiler: operator %q: kind %s declares no partition key, cannot be parallelised", h.name, h.kind)
	}
	key := h.params[model.PartitionKey]
	if key == "" {
		return nil, fmt.Errorf("compiler: operator %q: parallel region needs the %s parameter (the partition-key attribute)", h.name, model.PartitionKey)
	}
	if len(h.inputs) != 1 || len(h.outputs) != 1 {
		return nil, fmt.Errorf("compiler: operator %q: parallel regions need exactly 1 input and 1 output port, have %d/%d", h.name, len(h.inputs), len(h.outputs))
	}
	if h.coloc != "" || h.isolatePE {
		return nil, fmt.Errorf("compiler: operator %q: parallel regions cannot be colocated or host-isolated", h.name)
	}
	for _, e := range b.exports {
		if e.Operator == h.name {
			return nil, fmt.Errorf("compiler: operator %q: parallel regions cannot export streams", h.name)
		}
	}
	for _, im := range b.imports {
		if im.Operator == h.name {
			return nil, fmt.Errorf("compiler: operator %q: parallel regions cannot import streams", h.name)
		}
	}
	in, outSchema := h.inputs[0], h.outputs[0]
	w := h.parallel

	add := func(member, kind string) (*OpHandle, error) {
		nh := &OpHandle{
			b:         b,
			name:      regionOpName(h.name, member),
			kind:      kind,
			composite: h.composite,
			params:    opapi.Params{},
			isolate:   true,
			pool:      h.pool,
		}
		if _, dup := b.byName[nh.name]; dup {
			return nil, fmt.Errorf("compiler: region %q collides with operator %q", h.name, nh.name)
		}
		b.byName[nh.name] = nh
		return nh, nil
	}
	delete(b.byName, h.name)

	split, err := add("split", regionSplitKind)
	if err != nil {
		return nil, err
	}
	split.params["mode"] = "hash"
	split.params["attr"] = key
	split.inputs = []*tuple.Schema{in}

	handles := []*OpHandle{split}
	replicas := make([]string, 0, w)
	for i := 0; i < w; i++ {
		r, err := add(strconv.Itoa(i), h.kind)
		if err != nil {
			return nil, err
		}
		r.params = h.params.Clone()
		r.inputs = []*tuple.Schema{in}
		r.outputs = []*tuple.Schema{outSchema}
		handles = append(handles, r)
		replicas = append(replicas, r.name)
		split.outputs = append(split.outputs, in)
	}
	mrg, err := add("merge", regionMergeKind)
	if err != nil {
		return nil, err
	}
	for range replicas {
		mrg.inputs = append(mrg.inputs, outSchema)
	}
	mrg.outputs = []*tuple.Schema{outSchema}
	handles = append(handles, mrg)

	// Rewire the neighbours, then wire the interior: split port i feeds
	// replica i, whose single output feeds merge port i.
	for ci := range b.conns {
		c := &b.conns[ci]
		if c.ToOp == h.name {
			c.ToOp = split.name
		}
		if c.FromOp == h.name {
			c.FromOp = mrg.name
		}
	}
	for i, rn := range replicas {
		b.conns = append(b.conns,
			adl.Connection{FromOp: split.name, FromPort: i, ToOp: rn, ToPort: 0},
			adl.Connection{FromOp: rn, FromPort: 0, ToOp: mrg.name, ToPort: i},
		)
	}
	b.regions = append(b.regions, adl.Region{
		Name:     h.name,
		Key:      key,
		Width:    w,
		Split:    split.name,
		Merge:    mrg.name,
		Replicas: replicas,
	})
	return handles, nil
}

// ResizeRegion rewrites an ADL's parallel region to a new width: grown
// regions gain replicas cloned from replica 0 (each in a fresh PE with
// a new, previously unused partition index, so untouched PEs keep their
// indexes); shrunk regions lose their highest-indexed replicas and
// those replicas' PEs. The split's output ports, the merge's input
// ports, the interior connections, and the Regions record are all
// updated to match. It is the compile-time half of SAM's ResizeRegion
// actuation — the runtime half restarts the region's PEs and migrates
// the per-key operator state between partitionings.
func ResizeRegion(app *adl.Application, region string, width int) (*adl.Application, error) {
	if width < 1 {
		return nil, fmt.Errorf("compiler: resize region %q: width %d < 1", region, width)
	}
	r := app.Region(region)
	if r == nil {
		return nil, fmt.Errorf("compiler: resize: no region %q in application %q", region, app.Name)
	}
	out := app.Clone()
	ro := out.Region(region)
	template := out.OperatorByName(ro.Replicas[0])
	if template == nil {
		return nil, fmt.Errorf("compiler: resize region %q: replica %q missing", region, ro.Replicas[0])
	}
	templatePE := peOf(out, template.Name)
	if templatePE == nil {
		return nil, fmt.Errorf("compiler: resize region %q: replica %q has no PE", region, template.Name)
	}

	// Drop the interior wiring; it is rebuilt for the new width below.
	conns := out.Connects[:0]
	for _, c := range out.Connects {
		if c.FromOp == ro.Split || c.ToOp == ro.Merge {
			continue
		}
		conns = append(conns, c)
	}
	out.Connects = conns

	switch {
	case width < ro.Width:
		removed := map[string]bool{}
		for _, name := range ro.Replicas[width:] {
			removed[name] = true
		}
		ops := out.Operators[:0]
		for _, op := range out.Operators {
			if !removed[op.Name] {
				ops = append(ops, op)
			}
		}
		out.Operators = ops
		var pes []adl.PE
		for _, pe := range out.PEs {
			kept := pe.Operators[:0]
			for _, name := range pe.Operators {
				if !removed[name] {
					kept = append(kept, name)
				}
			}
			pe.Operators = kept
			if len(kept) > 0 {
				pes = append(pes, pe)
			}
		}
		out.PEs = pes
		ro.Replicas = ro.Replicas[:width]
	case width > ro.Width:
		next := 0
		for _, pe := range out.PEs {
			if pe.Index >= next {
				next = pe.Index + 1
			}
		}
		for i := ro.Width; i < width; i++ {
			op := adl.Operator{
				Name:      regionOpName(region, strconv.Itoa(i)),
				Kind:      template.Kind,
				Composite: template.Composite,
				Inputs:    clonePorts(template.Inputs),
				Outputs:   clonePorts(template.Outputs),
			}
			if template.Params != nil {
				op.Params = opapi.Params(template.Params).Clone()
			}
			if out.OperatorByName(op.Name) != nil {
				return nil, fmt.Errorf("compiler: resize region %q: operator %q already exists", region, op.Name)
			}
			out.Operators = append(out.Operators, op)
			out.PEs = append(out.PEs, adl.PE{
				Index:     next,
				Operators: []string{op.Name},
				Pool:      templatePE.Pool,
				IsolatePE: templatePE.IsolatePE,
				Restart:   templatePE.Restart,
			})
			next++
			ro.Replicas = append(ro.Replicas, op.Name)
		}
	}
	ro.Width = width

	split := out.OperatorByName(ro.Split)
	mrg := out.OperatorByName(ro.Merge)
	if split == nil || mrg == nil {
		return nil, fmt.Errorf("compiler: resize region %q: split or merge operator missing", region)
	}
	split.Outputs = replicatePort(split.Outputs[0], width)
	mrg.Inputs = replicatePort(mrg.Inputs[0], width)
	for i, rn := range ro.Replicas {
		out.Connects = append(out.Connects,
			adl.Connection{FromOp: ro.Split, FromPort: i, ToOp: rn, ToPort: 0},
			adl.Connection{FromOp: rn, FromPort: 0, ToOp: ro.Merge, ToPort: i},
		)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: resize region %q produced invalid ADL: %w", region, err)
	}
	return out, nil
}

func peOf(app *adl.Application, opName string) *adl.PE {
	for i := range app.PEs {
		for _, n := range app.PEs[i].Operators {
			if n == opName {
				return &app.PEs[i]
			}
		}
	}
	return nil
}

func clonePorts(ports []adl.Port) []adl.Port {
	out := make([]adl.Port, len(ports))
	for i, p := range ports {
		out[i] = adl.Port{Schema: append([]tuple.Attribute(nil), p.Schema...)}
	}
	return out
}

func replicatePort(p adl.Port, n int) []adl.Port {
	out := make([]adl.Port, n)
	for i := range out {
		out[i] = adl.Port{Schema: append([]tuple.Attribute(nil), p.Schema...)}
	}
	return out
}
