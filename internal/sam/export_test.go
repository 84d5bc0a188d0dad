package sam

import "streamorca/internal/transport"

// LinkFrom returns the live transport of the link leaving port 0 of the
// named operator, so a test can feed it what no operator may submit.
func (s *SAM) LinkFrom(op string) *transport.Link {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.links {
		if l.fromOp == op && l.fromPort == 0 {
			return l.link
		}
	}
	return nil
}
