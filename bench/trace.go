package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"streamorca/internal/metrics"
)

// span is one timed call the harness made into a layer. Times are
// milliseconds since the tracer started; Parent is the index of the
// enclosing span in the same file, -1 at the top.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
}

// tracer keeps the spans of a traced run in memory; they are written
// out when the run ends. A nil tracer records nothing, which is how the
// untraced runs call the same code.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its index, to be passed to end and as
// the parent of spans nested in it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.ms(time.Now()), Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.ms(time.Now())
	t.mu.Unlock()
}

// add records a span whose ends were stamped elsewhere (the routine's
// failure handler, the sink).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: t.ms(start), End: t.ms(end), Parent: parent, Run: t.run})
	t.mu.Unlock()
}

// sample is one reading of the job's public counters.
type sample struct {
	At    float64          `json:"at"`    // ms since the tracer started
	Queue map[string]int64 `json:"queue"` // operator -> input queue depth
}

// liveTotals are the counters summed over the job's PEs at one instant.
type liveTotals struct {
	tuplesSubmitted, bytesSubmitted int64
	dropped                         int64
	checkpoints, checkpointBytes    int64
}

// sampler reads the job's live counters every 10 ms through the same
// public calls an operator of the system has: SAM's job table, each PE
// container's metric set and snapshot.
type sampler struct {
	j    *job
	tr   *tracer
	stop chan struct{}
	done chan struct{}

	samples []sample
}

func startSampler(j *job, tr *tracer) *sampler {
	s := &sampler{j: j, tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.samples = append(s.samples, s.read())
			}
		}
	}()
	return s
}

func (s *sampler) read() sample {
	out := sample{At: s.tr.ms(time.Now()), Queue: map[string]int64{}}
	info, _ := s.j.inst.SAM.Job(s.j.id)
	for _, p := range info.PEs {
		c, ok := s.j.inst.Cluster.PEContainer(p.ID)
		if !ok {
			continue
		}
		for _, m := range c.MetricsSnapshot() {
			if m.Scope == metrics.OperatorScope && !m.Custom && m.Name == metrics.OpQueueSize {
				out.Queue[opLabel(m.Operator)] = m.Value
			}
		}
	}
	return out
}

// halt stops the sampler and returns what it read.
func (s *sampler) halt() []sample {
	close(s.stop)
	<-s.done
	return s.samples
}

// totals sums the PE-level counters of the job right now.
func (j *job) totals() liveTotals {
	var t liveTotals
	info, _ := j.inst.SAM.Job(j.id)
	for _, p := range info.PEs {
		c, ok := j.inst.Cluster.PEContainer(p.ID)
		if !ok {
			continue
		}
		m := c.PEMetrics()
		t.tuplesSubmitted += m.Counter(metrics.PETuplesSubmitted).Value()
		t.bytesSubmitted += m.Counter(metrics.PETupleBytesSubmitted).Value()
		t.dropped += m.Counter(metrics.PETuplesDropped).Value()
		t.checkpoints += m.Counter(metrics.PECheckpoints).Value()
		t.checkpointBytes += m.Counter(metrics.PECheckpointBytes).Value()
	}
	return t
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Spans    []span   `json:"spans"`
	Samples  []sample `json:"samples"`
}

func writeTrace(dir string, f traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+f.Workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
