package sam

import (
	"fmt"

	"streamorca/internal/ids"
	"streamorca/internal/metrics"
	"streamorca/internal/transport"
)

// xlink is one established stream link crossing a PE boundary: either a
// static intra-job connection between two partitions, or a dynamic
// import/export connection between jobs (§2.1). Links survive PE restarts
// by being re-established under the same id.
type xlink struct {
	id       string
	fromJob  ids.JobID
	fromIdx  int
	fromOp   string
	fromPort int
	toJob    ids.JobID
	toIdx    int
	toOp     string
	toPort   int
	// link is the live transport for the current incarnation; replaced on
	// re-establishment and discarded (dropping in-flight items, as a
	// severed TCP connection would) when the xlink is dropped or replaced.
	link *transport.Link
}

// staticLinks derives the cross-PE links implied by a job's own ADL
// connections.
func (s *SAM) staticLinks(j *job) []*xlink {
	var out []*xlink
	for _, c := range j.app.Connects {
		fromIdx := j.app.PEOfOperator(c.FromOp)
		toIdx := j.app.PEOfOperator(c.ToOp)
		if fromIdx == toIdx {
			continue // fused: wired inside the container
		}
		s.nextLink++
		out = append(out, &xlink{
			id:      fmt.Sprintf("static-%d-%d", j.id, s.nextLink),
			fromJob: j.id, fromIdx: fromIdx, fromOp: c.FromOp, fromPort: c.FromPort,
			toJob: j.id, toIdx: toIdx, toOp: c.ToOp, toPort: c.ToPort,
		})
	}
	return out
}

// matchImportsLocked computes the dynamic links a newly submitted job
// forms with every running job (both directions: its imports against
// their exports, and its exports against their imports), skipping pairs
// whose schemas disagree.
func (s *SAM) matchImportsLocked(newJob *job) []*xlink {
	var out []*xlink
	for _, other := range s.jobs {
		// newJob's imports fed by other's exports. A job may import its
		// own exports, so other == newJob is allowed.
		for _, im := range newJob.app.Imports {
			for _, ex := range other.app.Exports {
				if other.id == newJob.id && im.Operator == ex.Operator {
					continue // never self-loop a single operator
				}
				if !im.Matches(ex) {
					continue
				}
				if l := s.dynamicLink(other, ex.Operator, ex.Port, newJob, im.Operator, im.Port); l != nil {
					out = append(out, l)
				}
			}
		}
		if other.id == newJob.id {
			continue
		}
		// newJob's exports feeding other's imports.
		for _, ex := range newJob.app.Exports {
			for _, im := range other.app.Imports {
				if !im.Matches(ex) {
					continue
				}
				if l := s.dynamicLink(newJob, ex.Operator, ex.Port, other, im.Operator, im.Port); l != nil {
					out = append(out, l)
				}
			}
		}
	}
	return out
}

func (s *SAM) dynamicLink(src *job, exOp string, exPort int, dst *job, imOp string, imPort int) *xlink {
	fromIdx := src.app.PEOfOperator(exOp)
	toIdx := dst.app.PEOfOperator(imOp)
	if fromIdx < 0 || toIdx < 0 {
		return nil
	}
	srcPE := src.pes[fromIdx]
	dstPE := dst.pes[toIdx]
	if srcPE == nil || dstPE == nil || srcPE.container == nil || dstPE.container == nil {
		return nil
	}
	outSchema, err1 := srcPE.container.OutputSchema(exOp, exPort)
	inSchema, err2 := dstPE.container.InputSchema(imOp, imPort)
	if err1 != nil || err2 != nil || !outSchema.Equal(inSchema) {
		s.cfg.Logf("sam: skipping import link %s:%d -> %s:%d: schema mismatch", exOp, exPort, imOp, imPort)
		return nil
	}
	s.nextLink++
	return &xlink{
		id:      fmt.Sprintf("dyn-%d-%d-%d", src.id, dst.id, s.nextLink),
		fromJob: src.id, fromIdx: fromIdx, fromOp: exOp, fromPort: exPort,
		toJob: dst.id, toIdx: toIdx, toOp: imOp, toPort: imPort,
	}
}

// establishLocked (re)creates the physical transport for a link. Adding
// an outlet under an existing id atomically replaces the previous
// incarnation, so re-establishing after a PE restart needs no separate
// teardown.
func (s *SAM) establishLocked(l *xlink) error {
	src, ok := s.jobs[l.fromJob]
	if !ok {
		return fmt.Errorf("sam: link %s: source job gone", l.id)
	}
	dst, ok := s.jobs[l.toJob]
	if !ok {
		return fmt.Errorf("sam: link %s: destination job gone", l.id)
	}
	srcPE := src.pes[l.fromIdx]
	dstPE := dst.pes[l.toIdx]
	if srcPE == nil || srcPE.container == nil || dstPE == nil || dstPE.container == nil {
		return fmt.Errorf("sam: link %s: endpoint container missing", l.id)
	}
	schema, err := srcPE.container.OutputSchema(l.fromOp, l.fromPort)
	if err != nil {
		return err
	}
	inlet, err := dstPE.container.ExternalBatchInlet(l.toOp, l.toPort)
	if err != nil {
		return err
	}
	link := transport.NewLink(
		schema, inlet,
		srcPE.container.PEMetrics().Counter(metrics.PETupleBytesSubmitted),
		dstPE.container.PEMetrics().Counter(metrics.PETupleBytesProcessed),
		func(err error) { s.cfg.Logf("sam: link %s: %v", l.id, err) },
	)
	if err := srcPE.container.AddOutlet(l.fromOp, l.fromPort, l.id, link.Send); err != nil {
		link.Discard()
		return err
	}
	if old := l.link; old != nil {
		// The previous incarnation's in-flight tuples are lost, exactly as
		// a severed TCP connection would lose them (crash-restart
		// semantics); Discard never blocks, so holding the SAM lock here
		// is fine.
		old.Discard()
	}
	l.link = link
	return nil
}

// LinkCount reports the number of live stream links (for tests).
func (s *SAM) LinkCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.links)
}
