// Package exp holds the runnable scenarios: the paper's §5 use cases and
// §3 claims, and the chaos, load and fission runs built on the same
// platform. Every scenario is one entry of the Scenarios table, boots
// its platform and routine through the kit in kit.go, enforces its own
// assertions (a passing run is the demonstration), and returns an
// Outcome: the lines cmd/orcarun prints, plus the same measurements as
// a Metrics map for tests to assert on. Performance numbers are not
// recorded from here — go run ./bench is the one yardstick. Scales are
// compressed by three orders of magnitude against the paper's wall
// clock (600 s windows, 15 s pulls) while preserving every ratio that
// matters.
package exp

import (
	"cmp"
	"fmt"
	"io"
	"time"
)

// Params are the knobs one scenario run takes — the orcarun flags. Only
// Seed, MaxDuration and StoreDir mean something to every scenario; for
// the rest the zero value (negative for Skew) selects the scenario's
// default, and scenarios ignore knobs that are not theirs.
type Params struct {
	// Seed drives the workload, the fault schedule and the retry jitter
	// of the seeded scenarios (the ones that print a deterministic line).
	Seed int64
	// MaxDuration is the run's time budget; every wait derives from it.
	MaxDuration time.Duration
	// StoreDir backs the checkpoint store with this directory; empty
	// means memory, or a temp dir for the scenarios that exercise the
	// persistent store (recovery, staleness-failover).
	StoreDir string

	Rate     float64       // loadtest, chaos-load: offered tuples/sec; chaos: source rate
	Duration time.Duration // loadtest, chaos-load, fission: offered-load length; chaos: injection window
	Users    int           // loadtest, chaos-load: closed loop with this many users instead of a rate
	Think    time.Duration // loadtest, chaos-load: closed-loop think time
	Keys     int           // loadtest, chaos-load, fission: key-space size
	Skew     float64       // loadtest, chaos-load, fission: Zipf exponent (negative = default)
}

// budget is the run's time budget: MaxDuration, else def.
func (p Params) budget(def time.Duration) time.Duration {
	return cmp.Or(p.MaxDuration, stretch(def, 2))
}

// Outcome is what a scenario run reports.
type Outcome struct {
	// CSV is the figure series the run reproduces, header row first
	// (empty for scenarios without one).
	CSV []string
	// Deterministic holds the facts of the run that depend on the seed
	// alone — two same-seed runs must agree on it byte for byte. Empty
	// for unseeded scenarios.
	Deterministic string
	// Lines are the human-readable measurements, in print order.
	Lines []string
	// OK is the closing "<name> OK: ..." line.
	OK string
	// Metrics are the run's measured values by name, for tests to
	// assert on; what a reader needs of them is also in Lines. Every
	// scenario reports at least one.
	Metrics map[string]float64
}

func (o *Outcome) printf(format string, args ...any) {
	o.Lines = append(o.Lines, fmt.Sprintf(format, args...))
}

// Print writes the outcome in the order CI reads it.
func (o *Outcome) Print(w io.Writer) {
	for _, row := range o.CSV {
		fmt.Fprintln(w, row)
	}
	if o.Deterministic != "" {
		fmt.Fprintln(w, "deterministic:", o.Deterministic)
	}
	for _, l := range o.Lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w, o.OK)
}

// Scenario is one runnable entry of the catalog.
type Scenario struct {
	Name string
	// Doc is the one-line description -list-scenarios and the usage
	// string print.
	Doc string
	// Run executes the scenario. An error means an assertion of the
	// scenario failed (or the run could not be set up).
	Run func(Params) (*Outcome, error)
}

// Scenarios is the catalog, in presentation order: the paper's three
// use cases, the stateful-restart pair, the seeded chaos/load/fission
// runs, and the §3/§5 measurements.
var Scenarios = []Scenario{
	{"sentiment", "§5.1 / Figure 8: a data-distribution shift triggers an external model recomputation", sentiment},
	{"failover", "§5.2 / Figure 9: replica failover on PE failure, then a cold window refill", failover},
	{"composition", "§5.3 / Figure 10: on-demand C3 jobs expand and contract the application graph", composition},
	{"recovery", "a checkpointed PE restarted by the routine resumes from its snapshot", recovery},
	{"staleness-failover", "failover promotes the backup with the freshest snapshot, not the longest uptime", stalenessFailover},
	{"chaos", "seeded fault schedule (PE kills, host outages, store faults) over a checkpointing pipeline", chaosScenario},
	{"loadtest", "open- or closed-loop Zipf load with a coordinated-omission-correct latency record", loadtest},
	{"chaos-load", "loadtest with a seeded fault schedule injected mid-run", chaosLoad},
	{"fission", "a routine widens a parallel region under overload; replicas multiply capacity", fission},
	{"loc", "§5: policy size against the paper's C++ line counts (run from the repository root)", loc},
	{"overhead", "§3: pipeline throughput with and without an orchestrator pulling every metric", overhead},
	{"reaction", "§3: kill-to-restarted latency, platform auto-restart against orchestrated restart", reaction},
}

// Find returns the scenario with the given name.
func Find(name string) (Scenario, bool) {
	for _, sc := range Scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
