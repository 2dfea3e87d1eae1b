package scenario

import (
	"strings"
	"sync/atomic"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/dagio"
	"dynasym/internal/workloads"
)

// uncompiledFingerprint runs the spec with the compiled-workload layer
// disabled — every cell rebuilds its graph from the builder, the pre-PR6
// behavior — and returns the result fingerprint.
func uncompiledFingerprint(t *testing.T, s Spec) string {
	t.Helper()
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	forcePerCellBuilds(p)
	results := make(map[string]RunMetrics, len(p.Cells))
	for _, c := range p.Cells {
		rm, err := p.RunCell(c)
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

// forcePerCellBuilds disables the plan's compiled-workload layer: every
// point gets a variant that never compiles, so each cell rebuilds its
// graph from the builder.
func forcePerCellBuilds(p *Plan) {
	for xi, pt := range p.Spec.Points {
		w := p.Spec.Workload
		cw := &compiledWorkload{build: func() (*dag.Graph, error) { return buildGraph(w, pt) }}
		cw.once.Do(func() {})
		p.compiled[xi] = cw
	}
}

// TestCompiledMatchesUncompiled is the tentpole's determinism gate: for
// every Table-1 policy and for each compilable workload kind (both dag
// kinds, the synthetic builder and K-means), the compiled-workload path
// must produce a byte-identical fingerprint to rebuilding the graph per
// cell.
func TestCompiledMatchesUncompiled(t *testing.T) {
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
					Name:     "compiled-vs-uncompiled",
					Platform: PlatformSpec{Preset: "tx2"},
					Workload: k.w,
					Policies: []core.Policy{pol},
					Points:   k.pts,
					Reps:     2,
					Seed:     7,
				}
				res, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				compiled := res.Fingerprint()
				if compiled == "" {
					t.Fatal("empty fingerprint")
				}
				if uncompiled := uncompiledFingerprint(t, s); compiled != uncompiled {
					t.Fatalf("compiled and uncompiled runs diverged:\n--- compiled\n%s\n--- uncompiled\n%s",
						compiled, uncompiled)
				}
			})
		}
	}
}

// Plans of the same spec must share one compiled workload through the
// process-wide cache, and points resolving to different graphs must not.
func TestPlansShareCompiledWorkloads(t *testing.T) {
	s := Spec{
		Name:     "share-compiled",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 5}},
		Policies: []core.Policy{core.RWS(), core.DAMC()},
		Points:   ParallelismPoints(2, 4),
		Reps:     2,
	}
	p1, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	// Both points override the generator width, so they are distinct
	// variants — but each variant is shared across the two plans.
	if p1.PointVariant(0) == p1.PointVariant(1) {
		t.Fatal("points with different parallelism overrides share a variant")
	}
	for xi := range s.Points {
		if p1.compiled[xi] != p2.compiled[xi] {
			t.Errorf("point %d: two plans of one spec hold different compiled workloads", xi)
		}
	}
	// A rep-only sweep has a single variant: all cells share one graph.
	single, err := NewPlan(Spec{
		Name:     "single-variant",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 5}},
		Policies: []core.Policy{core.RWS()},
		Reps:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if single.PointVariant(0) != 0 {
		t.Errorf("single-point plan variant = %d, want 0", single.PointVariant(0))
	}
}

// TestRunStopsDispatchAfterFailure pins the satellite bugfix: a failed
// cell must stop dispatch of the cells after it (no pointless simulation
// of a doomed grid), while the returned error stays the deterministic
// lowest-index failure.
func TestRunStopsDispatchAfterFailure(t *testing.T) {
	var ran atomic.Int64
	runCellHook = func(p *Plan, c CellJob) (RunMetrics, error, bool) {
		ran.Add(1)
		if c.Rep == 3 || c.Rep == 6 {
			return RunMetrics{}, errInjected(c.Rep), true
		}
		return RunMetrics{}, nil, true
	}
	defer func() { runCellHook = nil }()
	s := Spec{
		Name:     "mid-grid-failure",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 64}},
		Policies: []core.Policy{core.RWS()},
		Reps:     8,
		Seed:     1,
		Workers:  1,
	}
	_, err := Run(s)
	if err == nil {
		t.Fatal("Run succeeded despite injected failures")
	}
	// Two reps fail; the reported one must be the lower index even though
	// dispatch stops early.
	if !strings.Contains(err.Error(), "(rep 3)") {
		t.Errorf("error %q does not name the lowest failing cell (rep 3)", err)
	}
	if n := ran.Load(); n >= 8 {
		t.Errorf("all %d cells were simulated despite the mid-grid failure", n)
	} else if n < 4 {
		t.Errorf("only %d cells ran; every cell up to the failure must be dispatched", n)
	}
}

type errInjected int

func (e errInjected) Error() string { return "injected failure" }

// The pooled acquire/release cycle of a compiled variant must not rebuild
// anything: a handful of bookkeeping allocations at most, against the
// thousands a builder run costs.
func TestCompiledAcquireReleaseAllocs(t *testing.T) {
	w := WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky, Tiles: 16}}
	cw := &compiledWorkload{
		key:  "allocs-test",
		kind: DAGGen,
		build: func() (*dag.Graph, error) {
			return buildGraph(w, Point{})
		},
	}
	g, err := cw.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if cw.frozen == nil {
		t.Fatal("daggen workload did not freeze")
	}
	cw.release(g)
	avg := testing.AllocsPerRun(50, func() {
		g, err := cw.acquire()
		if err != nil {
			t.Fatal(err)
		}
		cw.release(g)
	})
	if avg > 8 {
		t.Errorf("acquire+release of a pooled compiled graph costs %.1f allocs, want ≤ 8", avg)
	}
}

// A workload whose graph cannot freeze (real bodies) must silently fall
// back to per-cell builds and still run correctly.
func TestUnfreezableWorkloadFallsBack(t *testing.T) {
	w := WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
		Kernel: workloads.Copy, Tasks: 16, MakeBodies: true,
	}}
	key, err := workloadKey(w, Point{})
	if err != nil {
		t.Fatal(err)
	}
	cw := &compiledWorkload{key: key, kind: Synthetic, build: func() (*dag.Graph, error) {
		return buildGraph(w, Point{})
	}}
	g, err := cw.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if cw.frozen != nil {
		t.Fatal("a graph with real bodies froze")
	}
	if g == nil || g.Total() == 0 {
		t.Fatal("fallback build returned no graph")
	}
	g2, err := cw.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if g2 == g {
		t.Fatal("fallback acquires must be independent builds")
	}
}
