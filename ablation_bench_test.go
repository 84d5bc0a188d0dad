// Ablation benchmarks for two dataplane design choices: operator fusion
// (intra-PE direct calls vs. serialized cross-PE links), and input queue
// capacity (backpressure granularity).
package streamorca_test

import (
	"fmt"
	"testing"
	"time"

	"streamorca/internal/ops"
	"streamorca/streams"
)

// ablationPipeline pushes b.N tuples through a 4-stage pipeline under
// the given fusion mode, reporting per-tuple end-to-end cost. FuseAll
// keeps every hop an in-process function call; FuseNone forces every hop
// through the serializing transport — the cost operator fusion exists to
// avoid (§2.1's COLA reference).
func ablationPipeline(b *testing.B, fusion streams.FusionMode, queueCap int) {
	inst, err := streams.NewInstance(streams.InstanceOptions{
		Hosts:           []streams.HostSpec{{Name: "h1"}},
		MetricsInterval: time.Hour,
		QueueCap:        queueCap,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inst.Close)
	collector := buniq("abl")
	ops.ResetCollector(collector)
	bl := streams.NewApp("Ablation")
	src := bl.AddOperator("src", "Beacon").Out(benchSchema).Param("count", fmt.Sprint(b.N))
	f1 := bl.AddOperator("f1", "Functor").In(benchSchema).Out(benchSchema).Param("addInt", "seq:1")
	f2 := bl.AddOperator("f2", "Functor").In(benchSchema).Out(benchSchema).Param("addInt", "seq:1")
	sink := bl.AddOperator("sink", "CollectSink").In(benchSchema).
		Param("collectorId", collector).Param("limit", "1")
	bl.Connect(src, 0, f1, 0)
	bl.Connect(f1, 0, f2, 0)
	bl.Connect(f2, 0, sink, 0)
	app, err := bl.Build(streams.BuildOptions{Fusion: fusion})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := inst.SAM.SubmitJob(app, streams.SubmitOptions{}); err != nil {
		b.Fatal(err)
	}
	awaitFinal(b, collector)
}

// BenchmarkAblationFusedPipeline: all four operators in one PE.
func BenchmarkAblationFusedPipeline(b *testing.B) {
	ablationPipeline(b, streams.FuseAll, 0)
}

// BenchmarkAblationUnfusedPipeline: one PE per operator; every hop pays
// encode+decode through the transport.
func BenchmarkAblationUnfusedPipeline(b *testing.B) {
	ablationPipeline(b, streams.FuseNone, 0)
}

// BenchmarkAblationQueueCap measures the unfused pipeline under
// different input-queue capacities (backpressure granularity).
func BenchmarkAblationQueueCap(b *testing.B) {
	for _, cap := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			ablationPipeline(b, streams.FuseNone, cap)
		})
	}
}
