package scenario

import (
	"reflect"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/workloads"
)

// stateFingerprint runs every cell of the spec sequentially through
// RunCellState with the given scratch state (nil means fresh state per
// cell, RunCell's path) and returns the merged result fingerprint.
func stateFingerprint(t *testing.T, s Spec, st *CellState) string {
	t.Helper()
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[string]RunMetrics, len(p.Cells))
	for _, c := range p.Cells {
		cs := st
		if cs == nil {
			cs = NewCellState()
		}
		rm, err := p.RunCellState(cs, c)
		if err != nil {
			t.Fatalf("%s: %v", p.CellLabel(c), err)
		}
		results[c.Hash] = rm
	}
	res, err := Merge(p, results)
	if err != nil {
		t.Fatal(err)
	}
	return res.Fingerprint()
}

// TestRuntimeReuseMatchesFresh is the determinism gate for cross-cell
// runtime reuse: for every Table-1 policy and each compilable workload
// kind, driving one CellState (reused engine + reset simrt.Runtime)
// through the whole grid must produce a fingerprint byte-identical to
// building fresh state for every cell.
func TestRuntimeReuseMatchesFresh(t *testing.T) {
	kinds := []struct {
		name string
		w    WorkloadSpec
		pts  []Point
	}{
		{"daggen", WorkloadSpec{Kind: DAGGen,
			DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 6}}, ParallelismPoints(2, 4)},
		{"dagfile", WorkloadSpec{Kind: DAGFile, DAG: dagio.Demo(), Criticality: CritInferred}, nil},
		{"synthetic", WorkloadSpec{Kind: Synthetic,
			Synthetic: workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 240}}, ParallelismPoints(2, 4)},
		{"kmeans", WorkloadSpec{Kind: KMeans,
			KMeans: workloads.KMeansConfig{N: 2048, D: 4, K: 4, Grains: 8, MaxIters: 6}}, nil},
	}
	for _, k := range kinds {
		for _, pol := range core.All() {
			k, pol := k, pol
			t.Run(k.name+"/"+pol.Name(), func(t *testing.T) {
				t.Parallel()
				s := Spec{
					Name:     "reuse-vs-fresh",
					Platform: PlatformSpec{Preset: "tx2"},
					Workload: k.w,
					Policies: []core.Policy{pol},
					Points:   k.pts,
					Reps:     2,
					Seed:     11,
				}
				fresh := stateFingerprint(t, s, nil)
				if fresh == "" {
					t.Fatal("empty fingerprint")
				}
				reused := stateFingerprint(t, s, NewCellState())
				if fresh != reused {
					t.Fatalf("fresh and reused runs diverged:\n--- fresh\n%s\n--- reused\n%s",
						fresh, reused)
				}
			})
		}
	}
}

// A CellState that already ran cells of one spec must be reusable for a
// spec with a different platform shape, policy family, and workload — the
// runtime's shape-change rebuild path — without influencing the metrics.
func TestRuntimeReuseAcrossShapes(t *testing.T) {
	warm := Spec{
		Name:     "reuse-warmup",
		Platform: PlatformSpec{Preset: "haswell16"},
		Workload: WorkloadSpec{Kind: Synthetic,
			Synthetic: workloads.SyntheticConfig{Kernel: workloads.Copy, Tasks: 96}},
		Policies: []core.Policy{core.RWS()},
		Seed:     3,
	}
	target := Spec{
		Name:     "reuse-target",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen,
			DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 5}},
		Policies: []core.Policy{core.DAMP()},
		Points:   ParallelismPoints(2, 4),
		Reps:     2,
		Seed:     23,
	}
	fresh := stateFingerprint(t, target, nil)
	st := NewCellState()
	_ = stateFingerprint(t, warm, st) // dirty the state on another shape
	if reused := stateFingerprint(t, target, st); reused != fresh {
		t.Fatalf("a state warmed on another platform changed the metrics:\n--- fresh\n%s\n--- reused\n%s",
			fresh, reused)
	}
}

// The warm reused path must stay cheap: once a worker's CellState has run
// one cell of the sweep, later same-shape cells may not rebuild the
// runtime. The bound is far below the thousands of allocations a fresh
// runtime costs per cell (per-core state, queues, bitmaps, pools), while
// leaving room for the per-cell topology/model build and the metrics
// readout, which are not pooled.
func TestRuntimeReuseAllocs(t *testing.T) {
	s := Spec{
		Name:     "reuse-allocs",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen,
			DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 5}},
		Policies: []core.Policy{core.DAMC()},
		Reps:     4,
		Seed:     5,
	}
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	st := NewCellState()
	if _, err := p.RunCellState(st, p.Cells[0]); err != nil {
		t.Fatal(err) // warm: compiles the variant and captures the runtime
	}
	fresh := testing.AllocsPerRun(5, func() {
		if _, err := p.RunCell(p.Cells[1]); err != nil {
			t.Fatal(err)
		}
	})
	warm := testing.AllocsPerRun(5, func() {
		if _, err := p.RunCellState(st, p.Cells[1]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per cell: fresh %.0f, warm %.0f", fresh, warm)
	// The remaining warm-path allocations are the per-cell topology/model
	// build and the metrics readout; the runtime itself contributes none
	// (TestResetAllocs in simrt pins that directly).
	if warm > 0.7*fresh {
		t.Errorf("warm reused cell costs %.0f allocs, fresh costs %.0f; reuse should save at least 30%%", warm, fresh)
	}
}

// Distributed Heat cells pool one runtime per node on the worker's
// CellState. Driving one state through Heat grids of different node counts,
// with a single-node cell in between, must reproduce every cell's fresh
// RunCell result bit for bit.
func TestHeatDistPooledStateMatchesFresh(t *testing.T) {
	heat := func(nodes int) Spec {
		return Spec{
			Name:     "heat-pooled",
			Platform: PlatformSpec{Preset: "haswell-node"},
			Workload: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: nodes, Iters: 5, BlocksPerNode: 16}},
			Disturb:  []Disturbance{{Kind: CoRunCPU, Node: 1, Cores: []int{0, 1}, Share: 0.5}},
			Policies: []core.Policy{core.DAMC(), core.RWS()},
			Reps:     2,
			Seed:     17,
		}
	}
	single := Spec{
		Name:     "heat-pooled-single",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic,
			Synthetic: workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 96}},
		Policies: []core.Policy{core.DAMP()},
		Seed:     3,
	}
	st := NewCellState()
	for _, s := range []Spec{heat(3), single, heat(2)} {
		p, err := NewPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range p.Cells {
			pooled, err := p.RunCellState(st, c)
			if err != nil {
				t.Fatalf("%s: %v", p.CellLabel(c), err)
			}
			fresh, err := p.RunCell(c)
			if err != nil {
				t.Fatalf("%s: %v", p.CellLabel(c), err)
			}
			if !reflect.DeepEqual(pooled, fresh) {
				t.Fatalf("%s %s: pooled state diverged from a fresh run:\npooled: %+v\nfresh:  %+v",
					s.Name, p.CellLabel(c), pooled, fresh)
			}
		}
	}
}
