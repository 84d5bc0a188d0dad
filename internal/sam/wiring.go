package sam

import (
	"fmt"
	"slices"

	"streamorca/internal/ids"
	"streamorca/internal/journal"
	"streamorca/internal/metrics"
	"streamorca/internal/transport"
)

// xlink is one established stream link crossing a PE boundary: either a
// static intra-job connection between two partitions, or a dynamic
// import/export connection between jobs (§2.1). A link lives as long as
// both endpoint containers: deploying a partition drops the links that
// touch it and mints them again from the ADL.
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
	// link is the live transport, discarded (dropping in-flight items,
	// as a severed TCP connection would) when the xlink is dropped.
	link *transport.Link
}

// touches reports whether the link has an endpoint in one of the job's
// partitions parts.
func (l *xlink) touches(job ids.JobID, parts []int) bool {
	return (l.fromJob == job && slices.Contains(parts, l.fromIdx)) || (l.toJob == job && slices.Contains(parts, l.toIdx))
}

// linksLocked derives from the ADL every link that touches j's
// partitions parts: j's own connections that cross a PE boundary, and
// its import/export matches with every running job, itself included,
// in both directions. It is the only place links are minted.
func (s *SAM) linksLocked(j *job, parts []int) []*xlink {
	var out []*xlink
	mint := func(static bool, src *job, fromOp string, fromPort int, dst *job, toOp string, toPort int) {
		l := &xlink{
			fromJob: src.id, fromIdx: src.app.PEOfOperator(fromOp), fromOp: fromOp, fromPort: fromPort,
			toJob: dst.id, toIdx: dst.app.PEOfOperator(toOp), toOp: toOp, toPort: toPort,
		}
		if static && l.fromIdx == l.toIdx {
			return // fused: wired inside the container
		}
		if l.touches(j.id, parts) {
			s.nextLink++
			l.id = fmt.Sprintf("dyn-%d-%d-%d", src.id, dst.id, s.nextLink)
			if static {
				l.id = fmt.Sprintf("static-%d-%d", j.id, s.nextLink)
			}
			out = append(out, l)
		}
	}
	for _, c := range j.app.Connects {
		mint(true, j, c.FromOp, c.FromPort, j, c.ToOp, c.ToPort)
	}
	for _, other := range s.jobs {
		// j's imports fed by other's exports. A job may import its own
		// exports, but an operator never feeds itself.
		for _, im := range j.app.Imports {
			for _, ex := range other.app.Exports {
				self := other == j && im.Operator == ex.Operator
				if !self && im.Matches(ex) && s.compatible(other, ex.Operator, ex.Port, j, im.Operator, im.Port) {
					mint(false, other, ex.Operator, ex.Port, j, im.Operator, im.Port)
				}
			}
		}
		if other == j {
			continue
		}
		// j's exports feeding other's imports.
		for _, ex := range j.app.Exports {
			for _, im := range other.app.Imports {
				if im.Matches(ex) && s.compatible(j, ex.Operator, ex.Port, other, im.Operator, im.Port) {
					mint(false, j, ex.Operator, ex.Port, other, im.Operator, im.Port)
				}
			}
		}
	}
	return out
}

// compatible reports whether an export can feed an import: both
// endpoints have a container (a job still being built has none, and
// forms the link when it deploys) and the port schemas agree.
func (s *SAM) compatible(src *job, exOp string, exPort int, dst *job, imOp string, imPort int) bool {
	srcPE := src.pes[src.app.PEOfOperator(exOp)]
	dstPE := dst.pes[dst.app.PEOfOperator(imOp)]
	if srcPE == nil || dstPE == nil || srcPE.container == nil || dstPE.container == nil {
		return false
	}
	outSchema, err1 := srcPE.container.OutputSchema(exOp, exPort)
	inSchema, err2 := dstPE.container.InputSchema(imOp, imPort)
	if err1 != nil || err2 != nil || !outSchema.Equal(inSchema) {
		s.note(journal.Event{Action: "skip-link", Job: dst.id, Target: fmt.Sprintf("%s:%d -> %s:%d", exOp, exPort, imOp, imPort), Note: "schema mismatch"}, nil)
		return false
	}
	return true
}

// dropLinksLocked removes every link that touches j's partitions parts.
// Dropping a link severs the connection: its outlet
// comes off the source container and pending and in-flight tuples are
// lost, as a severed TCP connection would lose them (Discard never
// blocks, so holding the SAM lock is fine).
func (s *SAM) dropLinksLocked(j *job, parts []int) {
	for id, l := range s.links {
		if !l.touches(j.id, parts) {
			continue
		}
		if src, ok := s.jobs[l.fromJob]; ok {
			if rp := src.pes[l.fromIdx]; rp != nil && rp.container != nil {
				_ = rp.container.RemoveOutlet(l.fromOp, l.fromPort, id) // fails only on a port establishLocked would have refused
			}
		}
		if l.link != nil {
			l.link.Discard()
		}
		delete(s.links, id)
	}
}

// establishLocked creates the physical transport for a freshly minted
// link between its endpoints' current containers.
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
	// The link calls onErr once per tuple it discards on a codec error;
	// the loss is the sending PE's to account for, on its counter alone
	// (no per-tuple path writes to the journal).
	dropped := srcPE.container.PEMetrics().Counter(metrics.PETuplesDroppedCodec)
	link := transport.NewLink(
		schema, inlet,
		srcPE.container.PEMetrics().Counter(metrics.PETupleBytesSubmitted),
		dstPE.container.PEMetrics().Counter(metrics.PETupleBytesProcessed),
		func(error) { dropped.Inc() },
	)
	if err := srcPE.container.AddOutlet(l.fromOp, l.fromPort, l.id, link.SendRun); err != nil {
		link.Discard()
		return err
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
