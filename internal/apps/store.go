// Package apps implements the paper's three use-case applications (§5) as
// reusable builders plus the application-specific operators they need:
// the Twitter sentiment-analysis pipeline (§5.1), the Trend Calculator
// financial application (§5.2), and the social-media C1/C2/C3 application
// set (§5.3). Examples, integration tests, and the experiment driver all
// share these definitions.
package apps

import (
	"sync"

	"streamorca/internal/opapi"
)

// ProfileRecord is one deduplicated user profile in the shared data store
// (the store C2 applications write and C3 applications read, §5.3).
type ProfileRecord struct {
	User     string
	Negative bool
	HasAge   bool
	HasGen   bool
	HasLoc   bool
}

// ProfileStore deduplicates profiles by user, so C3 applications never
// see the duplicates that C1→C2 fan-out produces (§5.3).
type ProfileStore struct {
	mu       sync.Mutex
	profiles map[string]ProfileRecord
}

// NewProfileStore returns an empty store.
func NewProfileStore() *ProfileStore {
	return &ProfileStore{profiles: make(map[string]ProfileRecord)}
}

// Add inserts a profile, reporting whether it was new.
func (s *ProfileStore) Add(p ProfileRecord) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.profiles[p.User]; dup {
		return false
	}
	s.profiles[p.User] = p
	return true
}

// Len returns the number of distinct profiles.
func (s *ProfileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.profiles)
}

// Snapshot copies the current profiles.
func (s *ProfileStore) Snapshot() []ProfileRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ProfileRecord, 0, len(s.profiles))
	for _, p := range s.profiles {
		out = append(out, p)
	}
	return out
}

// ProfileStoreIn returns the named store of an object set, creating it
// on first use.
func ProfileStoreIn(objs *opapi.Objects, id string) *ProfileStore {
	return opapi.Obtain(objs, id, NewProfileStore)
}
