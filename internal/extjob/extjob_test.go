package extjob

import (
	"testing"
	"time"

	"streamorca/internal/vclock"
)

func TestModelBasics(t *testing.T) {
	m := NewModel("flash", "screen")
	if !m.Contains("flash") || m.Contains("antenna") {
		t.Fatal("Contains wrong")
	}
	if m.Version() != 1 {
		t.Fatalf("Version = %d", m.Version())
	}
	if len(m.Causes()) != 2 {
		t.Fatalf("Causes = %v", m.Causes())
	}
}

func TestStoreAppendSnapshot(t *testing.T) {
	s := NewStore()
	s.Append("a")
	s.Append("b")
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	snap := s.Snapshot()
	s.Append("c")
	if len(snap) != 2 {
		t.Fatal("snapshot not isolated")
	}
}

func TestExtractCause(t *testing.T) {
	if c := ExtractCause("I hate my phone because of the antenna"); c != "antenna" {
		t.Fatalf("cause = %q", c)
	}
	if c := ExtractCause("I love my phone"); c != "" {
		t.Fatalf("cause = %q", c)
	}
}

func TestRunnerRecomputesModelAfterLatency(t *testing.T) {
	clock := vclock.NewManual(time.Unix(0, 0))
	r := NewRunner(clock, 10*time.Minute)
	store := NewStore()
	for i := 0; i < 5; i++ {
		store.Append("I hate my phone because of the antenna")
	}
	store.Append("I hate my phone because of the rare-issue")
	model := NewModel("flash")
	done := make(chan struct{})
	if err := r.Submit(store, model, 3, func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	if !r.Running() {
		t.Fatal("job not running")
	}
	// A second submission while running fails (the 10-minute suppression
	// in §5.1 exists on top of this).
	if err := r.Submit(store, model, 3, nil); err == nil {
		t.Fatal("concurrent job accepted")
	}
	if model.Version() != 1 {
		t.Fatal("model published before latency elapsed")
	}
	clock.BlockUntilWaiters(1)
	clock.Advance(10 * time.Minute)
	<-done
	if model.Version() != 2 {
		t.Fatalf("version = %d", model.Version())
	}
	if !model.Contains("antenna") {
		t.Fatal("recomputed model misses the frequent cause")
	}
	if model.Contains("rare-issue") {
		t.Fatal("min support ignored")
	}
	if model.Contains("flash") {
		t.Fatal("recomputation did not replace the model")
	}
	if r.Running() {
		t.Fatal("runner still running after publishing")
	}
}

func TestRunnerSubmitValidation(t *testing.T) {
	r := NewRunner(nil, 0)
	if err := r.Submit(nil, NewModel(), 1, nil); err == nil {
		t.Fatal("nil store accepted")
	}
	if err := r.Submit(NewStore(), nil, 1, nil); err == nil {
		t.Fatal("nil model accepted")
	}
}
