package metrics

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	c.Set(-7)
	if c.Value() != -7 {
		t.Fatalf("Value after Set = %d", c.Value())
	}
}

func TestCounterConcurrentInc(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("Value = %d, want %d", c.Value(), workers*per)
	}
}

func TestSetCounterIdentity(t *testing.T) {
	s := NewSet()
	a := s.Counter("x")
	b := s.Counter("x")
	if a != b {
		t.Fatal("Counter returned distinct cells for the same name")
	}
	a.Inc()
	if got, ok := s.Lookup("x"); !ok || got.Value() != 1 {
		t.Fatalf("Lookup(x) = %v, %v", got, ok)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Fatal("Lookup created a counter")
	}
}

func TestSetNamesSorted(t *testing.T) {
	s := NewSet()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.Counter(n)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestSetSnapshotIsCopy(t *testing.T) {
	s := NewSet()
	s.Counter("a").Add(10)
	snap := s.Snapshot()
	s.Counter("a").Add(5)
	if snap["a"] != 10 {
		t.Fatalf("snapshot mutated: %d", snap["a"])
	}
}

func TestSetConcurrentCreate(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Counter("shared").Inc()
		}()
	}
	wg.Wait()
	if got := s.Counter("shared").Value(); got != 16 {
		t.Fatalf("shared counter = %d", got)
	}
}

func TestNewOpMetricsPrecreatesBuiltins(t *testing.T) {
	m := NewOpMetrics()
	for _, n := range []string{OpTuplesProcessed, OpTuplesSubmitted, OpPunctsProcessed, OpQueueSize} {
		if _, ok := m.Builtin.Lookup(n); !ok {
			t.Fatalf("built-in %q missing", n)
		}
	}
	if len(m.Custom.Names()) != 0 {
		t.Fatal("custom set not empty")
	}
}

func TestScopeAndDirectionStrings(t *testing.T) {
	if OperatorScope.String() != "operator" || PortScope.String() != "port" || PEScope.String() != "pe" {
		t.Fatal("scope names wrong")
	}
	if Scope(0).String() != "unknown" {
		t.Fatal("zero scope not unknown")
	}
	if Input.String() != "input" || Output.String() != "output" || Direction(0).String() != "unknown" {
		t.Fatal("direction names wrong")
	}
}

// Property: a set's snapshot always reflects the sum of Adds applied to it.
func TestSetSnapshotProperty(t *testing.T) {
	f := func(deltas []int8) bool {
		s := NewSet()
		var want int64
		for _, d := range deltas {
			s.Counter("c").Add(int64(d))
			want += int64(d)
		}
		if len(deltas) == 0 {
			return len(s.Snapshot()) == 0
		}
		return s.Snapshot()["c"] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
