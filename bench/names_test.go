package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every workload and metric the program reports is declared in
// BENCHMARK.json with the same unit, direction and bound, and nothing
// is declared there that the program does not report.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", f.RunSeconds, runSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}

	if n := len(f.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d (2 to 8 allowed)", n, len(workloads))
	}
	seen := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range f.Workloads {
		unique("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is declared as %q (%q), the program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if n := len(f.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the program has %d (1 to 16 allowed)", n, len(endToEnd))
	}
	setup := false
	for i, m := range f.EndToEnd {
		unique("end-to-end metric", m.Name)
		want := endToEnd[i]
		if m.Bound == nil || m.Name != want.name || m.Unit != want.unit || m.Better != want.better || *m.Bound != want.bound {
			t.Errorf("end-to-end metric %d is declared as %+v, the program has %+v", i, m, want)
			continue
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bad unit, direction or bound: %+v", m.Name, want)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s, lower is better")
	}

	if n := len(f.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, the program has %d (1 to 128 allowed)", n, len(perLayer))
	}
	for i, m := range f.PerLayer {
		unique("per-layer metric", m.Name)
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer metric %d is declared as %+v, the program has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %q: bad unit or direction", m.Name)
		}
	}
}

// tinyPlan runs every phase, briefly.
func tinyPlan(traced bool) plan {
	p := plan{
		incarnations: 2, setups: 2,
		segments: 2, segment: 40 * time.Millisecond,
		windows: 2, window: 100 * time.Millisecond, warm: 50 * time.Millisecond,
		eventSegs: 1, eventSeg: 40 * time.Millisecond,
		kills: 5, killEvery: 10 * time.Millisecond,
		resizes: 2, resizeEvery: 30 * time.Millisecond,
	}
	if traced {
		p.incarnations = 1
	}
	return p
}

func metricNames(specs []metricSpec) []string {
	names := make([]string, len(specs))
	for i, m := range specs {
		names[i] = m.name
	}
	sort.Strings(names)
	return names
}

func reported(res *result) []string {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics %v, declared %d %v", len(got), got, len(want), want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("reported metric %q where %q is declared", got[i], want[i])
		}
	}
}

// A real, short run of every workload reports exactly the declared
// end-to-end metrics, none of them zero, with every output right.
func TestEndToEndRunReportsDeclaredMetrics(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, 7, tinyPlan(false))
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, reported(res), metricNames(endToEnd))
			for n, v := range res.metrics {
				if !(v > 0) {
					t.Errorf("%s = %v, want a positive measurement", n, v)
				}
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("failed %d of %d: %v", res.failed, res.attempted, res.errs)
			}
		})
	}
}

// The traced run reports exactly the declared per-layer metrics, keeps
// the layers apart the way the workloads were chosen to, and writes a
// trace whose spans nest.
func TestPerLayerRunReportsDeclaredMetrics(t *testing.T) {
	defer func(n int) { probePasses = n }(probePasses)
	probePasses = 1
	dir := t.TempDir()
	results := map[string]*result{}
	for _, name := range []string{"chain-fused", "chain-unfused", "keyed-ckpt"} {
		res, err := runPerLayer(workloadByName(name), 7, tinyPlan(true), dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameNames(t, reported(res), metricNames(perLayer))
		if res.failed != 0 {
			t.Errorf("%s: failed %d of %d: %v", name, res.failed, res.attempted, res.errs)
		}
		results[name] = res
	}
	fused, unfused, keyed := results["chain-fused"].metrics, results["chain-unfused"].metrics, results["keyed-ckpt"].metrics
	if fused["transport.bytes_per_tuple"] != 0 || !(unfused["transport.bytes_per_tuple"] > 0) {
		t.Errorf("transport.bytes_per_tuple: fused %v (want 0), unfused %v (want > 0)", fused["transport.bytes_per_tuple"], unfused["transport.bytes_per_tuple"])
	}
	if fused["ckpt.count"] != 0 || unfused["ckpt.count"] != 0 || !(keyed["ckpt.count"] > 0) {
		t.Errorf("ckpt.count: fused %v, unfused %v (want 0), keyed %v (want > 0)", fused["ckpt.count"], unfused["ckpt.count"], keyed["ckpt.count"])
	}
	for name, res := range results {
		if res.metrics["pe.dropped"] != 0 {
			t.Errorf("%s: pe.dropped = %v before any kill", name, res.metrics["pe.dropped"])
		}
	}

	data, err := os.ReadFile(dir + "/trace-keyed-ckpt.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, s := range tf.Spans {
		byName[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Parent >= i || s.Parent < -1 {
			t.Errorf("span %d %s has parent %d", i, s.Name, s.Parent)
		} else if s.Parent >= 0 {
			if p := tf.Spans[s.Parent]; s.Start < p.Start || s.End > p.End+1e-6 {
				t.Errorf("span %d %s [%v, %v] is not inside its parent %s [%v, %v]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
	}
	for _, want := range []string{"setup", "compiler.build", "platform.new", "sam.submit", "wait.running", "first_tuple",
		"sat.segment[0]", "paced", "paced.window[1]", "kill[0]", "sam.kill", "core.detect", "sam.restart", "bench.resume", "resize[0]", "sam.cancel"} {
		if byName[want] == 0 {
			t.Errorf("trace has no %s span", want)
		}
	}
	if len(tf.Samples) == 0 {
		t.Error("trace has no sampler readings")
	}
}
