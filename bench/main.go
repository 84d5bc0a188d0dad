// Command bench is streamorca's benchmark: four workloads, each taken
// through the same phases (set-up, closed-loop saturation, open-loop
// latency at a fixed rate, kill / resize / user-event cycles under a
// steady load), every output checked against a reference computed from
// the seeded inputs. See README.md in this directory.
//
//	go run ./bench -seed 42              every workload, end-to-end metrics
//	go run ./bench -seed 42 -trace 1     ... followed by the traced runs
//	go run ./bench -workload adapt       one workload, in this process
//	go run ./bench -selfcheck            the untraced set twice, compared
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// outDir is where traced runs leave their trace files, relative to the
// directory the benchmark is run from (the repository root).
var outDir = filepath.Join("bench", "out")

// report is the JSON object a single-workload run ends with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
	seed := flag.Int64("seed", 42, "seed of the generated inputs (keys and payloads)")
	seconds := flag.Int("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics and writes bench/out/trace-<workload>.json")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced set twice and fail if any end-to-end metric disagrees by more than its bound")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		os.Exit(runOne(w, *seed, *seconds, *trace == 1))
	}
	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds))
	}
	os.Exit(runAll(*seed, *seconds, *trace == 1))
}

// budget is the wall time a run of the given measured length may take
// before it is declared hung: three times what it needs.
func budget(seconds int) time.Duration {
	return 3 * time.Duration(seconds+15) * time.Second
}

// runOne runs one workload in this process and prints its report.
func runOne(w *workloadDef, seed int64, seconds int, traced bool) int {
	// No wait in the harness is without a deadline, but a wedged
	// platform call would be: nothing outlives the budget.
	time.AfterFunc(budget(seconds), func() {
		fmt.Fprintf(os.Stderr, "bench: %s: still running after %s, giving up\n", w.name, budget(seconds))
		os.Exit(3)
	})
	var res *result
	var err error
	specs := endToEnd
	if traced {
		specs = perLayer
		res, err = runPerLayer(w, seed, planFor(seconds, true), outDir)
	} else {
		res, err = runEndToEnd(w, seed, planFor(seconds, false))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s seed %d seconds %d trace %t\n", w.name, seed, seconds, traced)
	for _, m := range specs {
		v := res.metrics[m.name]
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("  %-28s %16.6g %s\n", m.name, v, m.unit)
	}
	fmt.Printf("  %-28s %16.6g (%d failed of %d)\n", "loss_frac", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, e := range res.errs {
		fmt.Printf("  WRONG: %s\n", e)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// child runs one workload in a process of its own, so that CPU, heap
// and GC state do not leak from one workload into the next, and returns
// its report. A child that fails, or outlives its budget and is killed,
// reports everything attempted as failed.
func child(w *workloadDef, seed int64, seconds int, traced bool) (report, string) {
	lost := report{Attempted: 1, Failed: 1}
	exe, err := os.Executable()
	if err != nil {
		return lost, err.Error()
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget(seconds)+5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	text := bytes.TrimRight(stdout.Bytes(), "\n")
	last := text[bytes.LastIndexByte(text, '\n')+1:]
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		if runErr != nil {
			return lost, runErr.Error()
		}
		return lost, fmt.Sprintf("no report on the last line: %v", err)
	}
	return rep, string(text[:len(text)-len(last)])
}

// runSet runs every workload once in child processes, printing each
// child's lines as it finishes.
func runSet(seed int64, seconds int, traced bool) (map[string]report, bool) {
	ok := true
	reps := map[string]report{}
	for i := range workloads {
		w := &workloads[i]
		rep, text := child(w, seed, seconds, traced)
		fmt.Print(text)
		if !rep.Correct {
			ok = false
			fmt.Printf("  FAILED: %s: loss_frac %g\n", w.name, float64(rep.Failed)/float64(rep.Attempted))
		}
		reps[w.name] = rep
	}
	return reps, ok
}

func runAll(seed int64, seconds int, traced bool) int {
	_, ok := runSet(seed, seconds, false)
	if traced {
		_, tok := runSet(seed, seconds, true)
		ok = ok && tok
	}
	if !ok {
		return 1
	}
	return 0
}

// selfCheck runs the untraced set twice and compares every workload's
// end-to-end metrics between the two: a benchmark whose own repeats
// disagree by more than a metric's bound cannot gate on that bound.
func selfCheck(seed int64, seconds int) int {
	a, okA := runSet(seed, seconds, false)
	b, okB := runSet(seed, seconds, false)
	ok := okA && okB
	fmt.Printf("%-14s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range workloads {
		name := workloads[i].name
		for _, m := range endToEnd {
			va, vb := a[name].Metrics[m.name].Value, b[name].Metrics[m.name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := ""
			if !(diff <= m.bound) {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", name, m.name, va, vb, 100*diff, 100*m.bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
