// Benchmark harness: one sub-benchmark per paper figure and ablation
// scenario family at a reduced scale (the CLI `asymbench -scenario` runs
// them at paper scale; see EXPERIMENTS.md), plus the engine throughput
// benchmarks the committed BENCH_PR*.json snapshots track.
package dynasym_test

import (
	"runtime"
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/scenario"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// benchScale keeps each family iteration in the tens of milliseconds.
const benchScale = 0.05

// BenchmarkPaperFamilies runs every paper figure and ablation family once
// per iteration at benchScale, calibration runs (Figures 9 and 10)
// included.
func BenchmarkPaperFamilies(b *testing.B) {
	for _, name := range scenario.Names() {
		if !strings.HasPrefix(name, "fig") && !strings.HasPrefix(name, "ablation-") {
			continue
		}
		f, _ := scenario.Lookup(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scenario.MustRun(f.Spec(benchScale, scenario.DefaultSeed))
			}
		})
	}
}

// BenchmarkScaleout64Engine is the event-volume stress test: a 64-core
// 8-cluster platform (the scaleout-64 scenario family's shape) with
// phase-staggered bursts on the little clusters, running a wide synthetic
// MatMul DAG under the sampled DAM-C policy. The reported events/s is the
// engine's dispatch throughput, the metric BENCH_PR2.json tracks. Workload
// and platform construction happen outside the timed sections (with a
// forced collection of the setup garbage), so the measurement isolates the
// simulation loop itself.
func BenchmarkScaleout64Engine(b *testing.B) {
	var events uint64
	var tasks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo := topology.ScaleOut(8, 8)
		model := machine.New(topo)
		for ci := 1; ci < topo.NumClusters(); ci += 2 {
			interfere.BurstCPU(model, topo.CoresOf(ci), 0.5, 2, 2, float64(ci/2), 0)
		}
		g := workloads.BuildSynthetic(workloads.SyntheticConfig{
			Kernel:      workloads.MatMul,
			Tasks:       2400,
			Parallelism: 16,
		}.Defaults())
		rt, err := simrt.New(simrt.Config{
			Topo:   topo,
			Model:  model,
			Policy: core.NewSampled(core.DAMC(), 32),
			Seed:   42,
		})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		if _, err := rt.Run(g); err != nil {
			b.Fatal(err)
		}
		events += rt.Engine().Processed
		tasks += g.Total()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "tasks/s")
}

// Engine micro-benchmarks: scheduling throughput of the simulated runtime
// (events/s) and the real runtime (tasks/s on trivial tasks).
func BenchmarkSimulatedSchedulerThroughput(b *testing.B) {
	f, _ := scenario.Lookup("fig4a")
	spec := f.Spec(0.02, scenario.DefaultSeed)
	spec.Points = scenario.ParallelismPoints(6)
	spec.Policies = []core.Policy{core.DAMC()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scenario.MustRun(spec)
	}
}
