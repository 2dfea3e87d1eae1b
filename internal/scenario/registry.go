package scenario

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/workloads"
)

// Family is a named scenario generator. The scale argument shrinks task
// counts and time windows together (1.0 = full scale, 0 = the default 1),
// so a family behaves the same shape-wise at test scale as at paper scale;
// the seed drives all of the run's randomness (DefaultSeed unless the
// caller overrides it).
type Family struct {
	Name string
	Desc string
	Spec func(scale float64, seed uint64) Spec
	// View, when non-nil, renders what Result.WriteTable cannot show
	// (place shares, per-core times, per-iteration tables) for a result
	// of Spec.
	View func(w io.Writer, s Spec, res *Result)
}

// DefaultSeed is the seed every family runs with unless told otherwise.
const DefaultSeed = 42

// CheckScale rejects scale factors a family cannot honour: NaN, ±Inf and
// anything outside [0, 1]. Zero is accepted and means the default, 1 —
// it is what an omitted JSON scale decodes to.
func CheckScale(scale float64) error {
	if !(scale >= 0 && scale <= 1) {
		return fmt.Errorf("scenario: scale %v outside [0, 1] (0 means the default, 1)", scale)
	}
	return nil
}

var (
	regMu    sync.Mutex
	registry = map[string]Family{}
)

// Register adds a family; duplicate names panic (they indicate a
// programming error in an init block).
func Register(f Family) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate family %q", f.Name))
	}
	registry[f.Name] = f
}

// Lookup returns a registered family by name.
func Lookup(name string) (Family, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	f, ok := registry[name]
	return f, ok
}

// Names lists the registered families in sorted order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// scaled shrinks x by a CheckScale-valid factor (0 means the default, 1),
// keeping at least min. Families scale task counts through it, and time
// windows by its factor, scaled(1.0, scale, 0).
func scaled[T int | float64](x T, scale float64, min T) T {
	if scale == 0 {
		scale = 1
	}
	return max(T(float64(x)*scale), min)
}

// ParallelismPoints builds a sweep over DAG parallelism.
func ParallelismPoints(ps ...int) []Point {
	pts := make([]Point, len(ps))
	for i, p := range ps {
		pts[i] = Point{Label: fmt.Sprintf("P%d", p), Parallelism: p}
	}
	return pts
}

// The families below extend the paper's evaluation with conditions it
// never ran; paper.go registers the paper's own figures and ablations.
func init() {
	Register(Family{
		Name: "burst-sweep",
		Desc: "TX2 MatMul under phase-shifted bursty co-runners sweeping the A57 cluster (plus an independent burst on Denver core 1)",
		Spec: func(scale float64, seed uint64) Spec {
			f := scaled(1.0, scale, 0)
			return Spec{
				Name:     "burst-sweep",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
					Kernel: workloads.MatMul,
					Tasks:  scaled(32000, f, 600),
				}},
				Disturb: []Disturbance{
					{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 1.5 * f, IdleDur: 3 * f, PhaseStep: 1.0 * f},
					{Kind: Burst, Cores: []int{1}, Share: 0.5, BusyDur: 2 * f, IdleDur: 4 * f},
				},
				Policies: core.All(),
				Points:   ParallelismPoints(2, 4, 6),
				Seed:     seed,
			}
		},
	})
	Register(Family{
		Name: "throttle-ramp",
		Desc: "TX2 Stencil while the Denver cluster thermal-throttles to 30% mid-run and never recovers",
		Spec: func(scale float64, seed uint64) Spec {
			f := scaled(1.0, scale, 0)
			return Spec{
				Name:     "throttle-ramp",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
					Kernel: workloads.Stencil,
					Tasks:  scaled(20000, f, 600),
				}},
				Disturb: []Disturbance{
					{Kind: Throttle, Cluster: 0, From: 2.5 * f, To: 7.5 * f, Floor: 0.3, RampSteps: 6},
				},
				Policies: core.All(),
				Points:   ParallelismPoints(2, 4, 6),
				Seed:     seed,
			}
		},
	})
	Register(Family{
		Name: "cholesky-sweep",
		Desc: "tiled Cholesky DAGs (POTRF/TRSM/SYRK/GEMM) on TX2 under a bursty A57 co-runner, sweeping the tile-grid edge",
		Spec: func(scale float64, seed uint64) Spec {
			f := scaled(1.0, scale, 0)
			// Scale shrinks the tile grids (task count is ~T³/6) while
			// the labels keep naming the nominal size, so a 0.1-scale
			// sweep still has three distinct, comparable points.
			pts := make([]Point, 0, 3)
			for _, T := range []int{8, 12, 16} {
				pts = append(pts, Point{Label: fmt.Sprintf("T%d", T), Tile: scaled(T, f, 3+len(pts))})
			}
			return Spec{
				Name:     "cholesky-sweep",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky}},
				Disturb: []Disturbance{
					{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 0.3 * f, IdleDur: 0.6 * f, PhaseStep: 0.2 * f},
				},
				Policies: core.All(),
				Points:   pts,
				Seed:     seed,
			}
		},
	})
	Register(Family{
		Name: "random-layered",
		Desc: "seeded random layered DAGs (mixed cpu/mem/mix task classes) on TX2 with a throttling Denver cluster, sweeping layer width",
		Spec: func(scale float64, seed uint64) Spec {
			f := scaled(1.0, scale, 0)
			return Spec{
				Name:     "random-layered",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{
					Model:  dagio.ModelRandomLayered,
					Layers: scaled(96, f, 12),
					Degree: 3,
					Seed:   7,
				}},
				Disturb: []Disturbance{
					{Kind: Throttle, Cluster: 0, From: 1.5 * f, To: 4.5 * f, Floor: 0.3, RampSteps: 6},
				},
				Policies: core.All(),
				Points:   ParallelismPoints(4, 8, 16),
				Seed:     seed,
			}
		},
	})
	Register(Family{
		Name: "dag-import-demo",
		Desc: "the bundled examples/dag/demo.dot graph through the DOT importer under a paper-style DVFS wave (scale only trims reps; imported graphs have fixed shape)",
		Spec: func(scale float64, seed uint64) Spec {
			reps := 3
			if scaled(1.0, scale, 0) < 0.5 {
				reps = 1
			}
			return Spec{
				Name:     "dag-import-demo",
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: WorkloadSpec{Kind: DAGFile, DAG: dagio.Demo()},
				Disturb:  []Disturbance{PaperDVFS(1)},
				Policies: core.All(),
				Reps:     reps,
				Seed:     seed,
			}
		},
	})
	for _, shape := range []struct {
		cores    int
		clusters int
		per      int
	}{
		{16, 4, 4},
		{32, 4, 8},
		{64, 8, 8},
	} {
		shape := shape
		Register(Family{
			Name: fmt.Sprintf("scaleout-%d", shape.cores),
			Desc: fmt.Sprintf("%d-core %d-cluster big/little platform exercising the O(K) Sampled search at high parallelism", shape.cores, shape.clusters),
			Spec: func(scale float64, seed uint64) Spec {
				f := scaled(1.0, scale, 0)
				// One slow burst per little (odd) cluster, phase-staggered
				// across clusters, keeps the asymmetry dynamic at scale.
				var bursts []Disturbance
				for ci := 1; ci < shape.clusters; ci += 2 {
					bursts = append(bursts, Disturbance{
						Kind: Burst, Cluster: ci, Share: 0.5,
						BusyDur: 2 * f, IdleDur: 2 * f,
						Phase0: float64(ci/2) * f,
					})
				}
				return Spec{
					Name:     fmt.Sprintf("scaleout-%d", shape.cores),
					Platform: PlatformSpec{Preset: fmt.Sprintf("scaleout-%dx%d", shape.clusters, shape.per)},
					Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
						Kernel: workloads.MatMul,
						Tasks:  scaled(32000, scale, 1200),
					}},
					Disturb: bursts,
					Policies: []core.Policy{
						core.RWS(),
						core.DAMC(),
						core.NewSampled(core.DAMC(), 8),
						core.NewSampled(core.DAMC(), 32),
					},
					Points: ParallelismPoints(8, 16),
					Seed:   seed,
				}
			},
		})
	}
}
