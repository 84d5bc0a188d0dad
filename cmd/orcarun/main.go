// Command orcarun runs one scenario of the exp.Scenarios catalog — the
// paper's use cases and claims, and the chaos, load and fission runs —
// and prints its outcome: the figure series as CSV (when the scenario
// reproduces one), a "deterministic:" line two same-seed runs must agree
// on (seeded scenarios), the measurements, and a closing "<name> OK:"
// line. A failed scenario assertion exits non-zero. Scenarios assert
// behaviour; performance numbers come from go run ./bench.
//
// Usage:
//
//	go run ./cmd/orcarun -list-scenarios
//	go run ./cmd/orcarun -scenario failover
//	go run ./cmd/orcarun -scenario chaos-load -seed 42 -max 60s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"streamorca/internal/exp"
)

func main() {
	names := make([]string, len(exp.Scenarios))
	for i, sc := range exp.Scenarios {
		names[i] = sc.Name
	}
	var p exp.Params
	scenario := flag.String("scenario", "sentiment", strings.Join(names, " | "))
	list := flag.Bool("list-scenarios", false, "list available scenarios and exit")
	flag.Int64Var(&p.Seed, "seed", 42, "chaos, loadtest, chaos-load, fission: fault schedule, workload, and retry jitter seed")
	flag.DurationVar(&p.MaxDuration, "max", 30*time.Second, "run time budget")
	flag.StringVar(&p.StoreDir, "store", "", "checkpoint store directory (default: memory; recovery, staleness-failover: a temp dir)")
	flag.Float64Var(&p.Rate, "rate", 0, "offered rate in tuples/sec: loadtest, chaos-load open-loop rate; chaos source rate (0 = scenario default)")
	flag.DurationVar(&p.Duration, "duration", 0, "offered-load schedule length: loadtest, chaos-load, fission duration; chaos injection window (0 = scenario default)")
	flag.IntVar(&p.Users, "users", 0, "loadtest, chaos-load: closed-loop mode with this many concurrent users (0 = open loop)")
	flag.DurationVar(&p.Think, "think", 0, "loadtest, chaos-load: closed-loop per-user think time (0 = 10ms)")
	flag.IntVar(&p.Keys, "keys", 0, "loadtest, chaos-load, fission: user key-space size (0 = scenario default)")
	flag.Float64Var(&p.Skew, "skew", -1, "loadtest, chaos-load, fission: Zipf key-skew exponent (-1 = scenario default)")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintln(w, "usage: orcarun -scenario <name> [flags]\n\nscenarios:")
		for _, sc := range exp.Scenarios {
			fmt.Fprintf(w, "  %-19s %s\n", sc.Name, sc.Doc)
		}
		fmt.Fprintln(w, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, name := range names {
			fmt.Println(name)
		}
		return
	}
	sc, ok := exp.Find(*scenario)
	if !ok {
		log.Fatalf("unknown scenario %q (want %s)", *scenario, strings.Join(names, " | "))
	}
	out, err := sc.Run(p)
	if err != nil {
		log.Fatal(err)
	}
	out.Print(os.Stdout)
}
