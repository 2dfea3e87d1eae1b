package scenario

// Compiled workloads: a plan compiles each distinct workload variant of its
// spec once — the frozen task graph for static kinds, the generated data
// blob for K-means — and every cell of the grid stamps out (or recycles) a
// cheap per-cell instance instead of re-running the builder. Variants are
// keyed by the workload's content (config after point overrides and
// defaults, or the dagio content digest) plus the criticality variant,
// because applyCriticality rewrites graph priorities; two points that
// resolve to the same key share one compiled workload, and a small
// process-wide cache shares compiled workloads across plans (the service
// re-plans overlapping specs constantly).
//
// Compilation is lazy — NewPlan only records the keys; the first RunCell of
// a variant compiles it. A plan that is only ever merged from cached cell
// results (the service's warm path) therefore never builds a graph at all.

import (
	"fmt"
	"math"
	"sync"

	"dynasym/internal/dag"
	"dynasym/internal/sim"
	"dynasym/internal/simrt"
	"dynasym/internal/workloads"
)

// CellState is reusable per-worker scratch for RunCellState: the simulation
// engine, whose event tiers keep their capacity across cells, and one
// simulated runtime and one probe per node index, whose queues, pools and
// per-core state are recycled via Runtime.Reset. A CellState must not be
// used by two cells concurrently.
type CellState struct {
	engine *sim.Engine
	// rts and probes are indexed by node. Entries are created by the
	// first cell that needs them and reset for every cell after it. Reuse
	// is pure mechanism: a reset runtime is bit-identical to a fresh one,
	// the runtime re-zeros its probe per cell, and rendered aggregates are
	// deep copies, so reuse never leaks telemetry across cells.
	rts    []*simrt.Runtime
	probes []*simrt.Probe
}

// NewCellState returns scratch state for one sweep worker.
func NewCellState() *CellState { return &CellState{engine: sim.New()} }

// nodes returns the per-node runtime and probe slots for an n-node cell:
// the state's pools, grown as needed. Empty slots are filled by the cell
// that runs on them.
func (st *CellState) nodes(n int) ([]*simrt.Runtime, []*simrt.Probe) {
	for len(st.rts) < n {
		st.rts = append(st.rts, nil)
		st.probes = append(st.probes, nil)
	}
	return st.rts[:n], st.probes[:n]
}

// engineFor returns the engine a cell should run on: the reset per-worker
// engine.
func (st *CellState) engineFor() *sim.Engine {
	st.engine.Reset()
	return st.engine
}

// compiledWorkload is one workload variant, compiled at most once. For
// static kinds (Synthetic, DAGFile, DAGGen) the compiled form is a frozen
// graph plus a pool of reusable instances; for KMeans it is the generated
// application object, shared read-only by all simulated cells (bodies never
// run in simulation, so nothing mutates it); HeatDist has no compiled form.
// A build that produces an unfreezable graph (real bodies, hooks) is not an
// error — the variant just keeps building per cell.
type compiledWorkload struct {
	key   string
	kind  WorkloadKind
	kmCfg workloads.KMeansConfig
	build func() (*dag.Graph, error)

	once   sync.Once
	err    error
	frozen *dag.Frozen
	km     *workloads.KMeans
	pool   sync.Pool // *dag.Graph instances, reset and ready to Start
}

// compile runs once, on the first cell of the variant.
func (cw *compiledWorkload) compile() {
	if cw.kind == KMeans {
		cw.km = workloads.NewKMeans(cw.kmCfg)
		return
	}
	g, err := cw.build()
	if err != nil {
		cw.err = err
		return
	}
	fz, err := g.Freeze()
	if err != nil {
		return // unfreezable: fall back to per-cell builds
	}
	cw.frozen = fz
	cw.pool.Put(g) // the compile build is itself a valid first instance
}

// acquire returns a graph instance ready to Start. Instances from a frozen
// variant must be returned with release after the run.
func (cw *compiledWorkload) acquire() (*dag.Graph, error) {
	cw.once.Do(cw.compile)
	if cw.err != nil {
		return nil, cw.err
	}
	if cw.km != nil {
		return cw.km.Build(), nil
	}
	if cw.frozen == nil {
		return cw.build()
	}
	if v := cw.pool.Get(); v != nil {
		return v.(*dag.Graph), nil
	}
	return cw.frozen.NewGraph(), nil
}

// release resets a drained instance and returns it to the pool. Instances
// that fail to reset (or variants with no frozen form) are simply dropped.
func (cw *compiledWorkload) release(g *dag.Graph) {
	if cw == nil || cw.frozen == nil || g == nil {
		return
	}
	if err := cw.frozen.Reset(g); err != nil {
		return
	}
	cw.pool.Put(g)
}

// workloadKey renders the content key of the workload variant a point runs:
// every field that changes the built graph (config after the point's
// overrides and defaults, the criticality variant, the dagio digest) and
// nothing else. Points with equal keys share one compiled workload.
func workloadKey(w WorkloadSpec, pt Point) (string, error) {
	switch w.Kind {
	case Synthetic:
		cfg := w.Synthetic
		if pt.Parallelism > 0 {
			cfg.Parallelism = pt.Parallelism
		}
		if pt.Tile > 0 {
			cfg.Tile = pt.Tile
		}
		cfg = cfg.Defaults()
		return fmt.Sprintf("synthetic|kernel=%d|tile=%d|sweeps=%d|tasks=%d|par=%d|bodies=%t|seed=%d|crit=%s",
			cfg.Kernel, cfg.Tile, cfg.Sweeps, cfg.Tasks, cfg.Parallelism, cfg.MakeBodies, cfg.Seed, w.Criticality), nil
	case KMeans:
		cfg := w.KMeans.Defaults()
		return fmt.Sprintf("kmeans|n=%d|d=%d|k=%d|grains=%d|jumbo=%x|scale=%x|iters=%d|eps=%x|seed=%d|blob=%x",
			cfg.N, cfg.D, cfg.K, cfg.Grains,
			math.Float64bits(cfg.JumboFrac), math.Float64bits(cfg.CostScale),
			cfg.MaxIters, math.Float64bits(cfg.Epsilon), cfg.Seed,
			math.Float64bits(cfg.BlobStd)), nil
	case DAGFile:
		digest, err := w.DAG.Digest()
		if err != nil {
			return "", err
		}
		return "dagfile|" + digest + "|crit=" + w.Criticality, nil
	case DAGGen:
		cfg := w.DAGGen
		if pt.Parallelism > 0 {
			cfg.Width = pt.Parallelism
		}
		if pt.Tile > 0 {
			cfg.Tiles = pt.Tile
		}
		cfg = cfg.Defaults()
		return fmt.Sprintf("daggen|model=%s|tiles=%d|tile=%d|layers=%d|width=%d|degree=%d|seed=%d|crit=%s",
			cfg.Model, cfg.Tiles, cfg.Tile, cfg.Layers, cfg.Width, cfg.Degree, cfg.Seed, w.Criticality), nil
	default:
		return "", fmt.Errorf("workload kind %v has no compiled form", w.Kind)
	}
}

// compiledCacheCap bounds the process-wide compiled-workload cache. Entries
// are a frozen graph (tens of KB for typical sweeps) or a K-means blob
// (MBs), so the cache is deliberately small; sweeps only need their own
// handful of variants and eviction merely costs a rebuild.
const compiledCacheCap = 32

var (
	compiledMu      sync.Mutex
	compiledEntries = map[string]*compiledWorkload{}
	compiledOrder   []string // LRU, most recent last
)

// compiledFor returns the process-wide compiled workload for the key,
// creating it (uncompiled) on first sight. The build closure and configs
// are only captured for a new entry; for an existing key they are
// equivalent by construction of the key.
func compiledFor(key string, kind WorkloadKind, kmCfg workloads.KMeansConfig, build func() (*dag.Graph, error)) *compiledWorkload {
	compiledMu.Lock()
	defer compiledMu.Unlock()
	if cw, ok := compiledEntries[key]; ok {
		for i, k := range compiledOrder {
			if k == key {
				compiledOrder = append(compiledOrder[:i], compiledOrder[i+1:]...)
				break
			}
		}
		compiledOrder = append(compiledOrder, key)
		return cw
	}
	cw := &compiledWorkload{key: key, kind: kind, kmCfg: kmCfg, build: build}
	compiledEntries[key] = cw
	compiledOrder = append(compiledOrder, key)
	for len(compiledOrder) > compiledCacheCap {
		delete(compiledEntries, compiledOrder[0])
		compiledOrder = compiledOrder[1:]
	}
	return cw
}

// compileWorkloads resolves each point of the (validated, defaults-filled)
// spec to its compiled workload and a dense per-plan variant id. HeatDist
// has no compiled form: byPoint is nil and all variants are 0.
func compileWorkloads(s Spec) (byPoint []*compiledWorkload, variant []int, err error) {
	variant = make([]int, len(s.Points))
	if s.Workload.Kind == HeatDist {
		return nil, variant, nil
	}
	byPoint = make([]*compiledWorkload, len(s.Points))
	ids := make(map[string]int, 1)
	for xi := range s.Points {
		pt := s.Points[xi]
		key, err := workloadKey(s.Workload, pt)
		if err != nil {
			return nil, nil, err
		}
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
		}
		variant[xi] = id
		w := s.Workload
		byPoint[xi] = compiledFor(key, w.Kind, w.KMeans, func() (*dag.Graph, error) {
			return buildGraph(w, pt)
		})
	}
	return byPoint, variant, nil
}
