// Package extjob simulates the external batch-processing system of use
// case §5.1 (a Hadoop/BigInsights job computing the causes of negative
// sentiment from a tweet corpus). The streaming application appends
// negative tweets to a Store; the orchestrator submits a Runner job that,
// after a configurable latency, recomputes the cause Model from the
// stored corpus and publishes it atomically; the streaming operators
// observe the new model version and reload — exactly the control loop the
// paper's Figure 8 exercises.
package extjob

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"streamorca/internal/opapi"
	"streamorca/internal/vclock"
)

// Model is the published set of known complaint causes, versioned so
// consumers can detect refreshes.
type Model struct {
	mu      sync.RWMutex
	causes  map[string]bool
	version int64
}

// NewModel returns a model pre-loaded with the given causes at version 1
// (the offline pre-computation the application boots from, §5.1).
func NewModel(causes ...string) *Model {
	m := &Model{causes: make(map[string]bool, len(causes)), version: 1}
	for _, c := range causes {
		m.causes[c] = true
	}
	return m
}

// Contains reports whether a cause is known.
func (m *Model) Contains(cause string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.causes[cause]
}

// Version returns the model version; it increments on every publish.
func (m *Model) Version() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version
}

// Causes returns the known causes.
func (m *Model) Causes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.causes))
	for c := range m.causes {
		out = append(out, c)
	}
	return out
}

// publish atomically replaces the cause set.
func (m *Model) publish(causes map[string]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.causes = causes
	m.version++
}

// Store is the corpus of negative tweets awaiting batch processing (the
// paper's on-disk store of negative tweets).
type Store struct {
	mu    sync.Mutex
	texts []string
}

// NewStore returns an empty corpus.
func NewStore() *Store { return &Store{} }

// Append adds one document.
func (s *Store) Append(text string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.texts = append(s.texts, text)
}

// Len returns the corpus size.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.texts)
}

// Snapshot copies the corpus.
func (s *Store) Snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.texts...)
}

// ExtractCause parses the complaint cause out of a tweet following the
// corpus convention "... because of the <cause>". It returns "" when the
// document carries no cause.
func ExtractCause(text string) string {
	const marker = "because of the "
	i := strings.LastIndex(text, marker)
	if i < 0 {
		return ""
	}
	return strings.TrimSpace(text[i+len(marker):])
}

// Runner executes cause-recomputation jobs. At most one job runs at a
// time, mirroring the paper's policy of not re-triggering while a Hadoop
// job is in flight.
type Runner struct {
	clock   vclock.Clock
	latency time.Duration

	mu      sync.Mutex
	running bool
}

// NewRunner builds a runner whose jobs take latency of (virtual) time.
func NewRunner(clock vclock.Clock, latency time.Duration) *Runner {
	if clock == nil {
		clock = vclock.Real()
	}
	return &Runner{clock: clock, latency: latency}
}

// Running reports whether a job is in flight.
func (r *Runner) Running() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.running
}

// Submit starts a recomputation job over the store: after the job
// latency, every cause appearing at least minSupport times in the corpus
// becomes part of the published model. Submitting while a job is running
// fails. onDone, if non-nil, runs after publication.
func (r *Runner) Submit(store *Store, model *Model, minSupport int, onDone func()) error {
	if store == nil || model == nil {
		return fmt.Errorf("extjob: Submit needs a store and a model")
	}
	if minSupport <= 0 {
		minSupport = 1
	}
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return fmt.Errorf("extjob: a job is already running")
	}
	r.running = true
	r.mu.Unlock()

	go func() {
		r.clock.Sleep(r.latency)
		counts := make(map[string]int)
		for _, text := range store.Snapshot() {
			if c := ExtractCause(text); c != "" {
				counts[c]++
			}
		}
		causes := make(map[string]bool)
		for c, n := range counts {
			if n >= minSupport {
				causes[c] = true
			}
		}
		model.publish(causes)
		r.mu.Lock()
		r.running = false
		r.mu.Unlock()
		if onDone != nil {
			onDone()
		}
	}()
	return nil
}

// ModelIn returns the named model of an object set, the namespace stream
// operators and routines share like a shared filesystem path in the
// paper's deployment; first use creates it pre-loaded with causes.
func ModelIn(objs *opapi.Objects, id string, causes ...string) *Model {
	return opapi.Obtain(objs, id, func() *Model { return NewModel(causes...) })
}

// StoreIn returns the named corpus of an object set, creating it empty
// on first use.
func StoreIn(objs *opapi.Objects, id string) *Store {
	return opapi.Obtain(objs, id, NewStore)
}
