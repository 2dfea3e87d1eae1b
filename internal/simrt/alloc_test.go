package simrt

import (
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/kernels"
	"dynasym/internal/machine"
	"dynasym/internal/topology"
)

// allocRuntime builds a runtime over a constant-profile TX2 with a large
// pool of independent tasks: the low-priority tasks all wake onto core 0,
// so every other core exercises the poll/steal path continuously while
// assemblies dispatch, start and complete — the full wake/steal/dispatch
// state machine.
func allocRuntime(t *testing.T) *Runtime {
	t.Helper()
	topo := topology.TX2()
	model := machine.New(topo)
	g := dag.New()
	g.Grow(4000)
	cost := kernels.MatMulCost(64)
	for i := 0; i < 4000; i++ {
		g.Add(&dag.Task{
			Label: "alloc-probe",
			Type:  kernels.TypeMatMul,
			High:  i%16 == 0,
			Cost:  cost,
			Iter:  -1,
		})
	}
	rt, err := New(Config{Topo: topo, Model: model, Policy: core.DAMC(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(g); err != nil {
		t.Fatal(err)
	}
	return rt
}

// Steady-state simulation — wake, poll, steal, dispatch, assembly start and
// completion, PTT updates, metrics — must be allocation-free once the
// runtime's rings, pools and the engine's tiers have reached their
// high-water marks. This is the allocation-regression gate for the simrt
// layer of the hot path.
func TestSteadyStateAllocFree(t *testing.T) {
	rt := allocRuntime(t)
	e := rt.Engine()
	// Warm: run a third of the workload so every ring, the assembly pool
	// and the engine arena have grown to their final capacity.
	e.RunUntil(0.008)
	if rt.Check() == nil {
		t.Fatal("workload drained during warm-up; enlarge it")
	}
	allocs := testing.AllocsPerRun(5, func() {
		e.RunUntil(e.Now() + 1e-3)
	})
	if allocs != 0 {
		t.Fatalf("steady-state wake/steal/dispatch allocated %.1f allocs per 1ms window, want 0", allocs)
	}
	if rt.Check() == nil {
		t.Fatal("workload drained during measurement; enlarge it")
	}
	// The run must still complete correctly afterwards.
	e.Run()
	if rt.Check() != nil {
		t.Fatal("run did not finish after measurement")
	}
}
