package scenario

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dynasym/internal/dag"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/metrics"
	"dynasym/internal/simnet"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/trace"
	"dynasym/internal/workloads"
)

// repSeedStride separates repetition seeds; repetition 0 runs with the
// spec's base seed, so a single-rep scenario reproduces a standalone run.
const repSeedStride = 1_000_003

// nodeSeedStride separates per-node runtime seeds in distributed cells
// (matching the paper-reproduction drivers, so refactoring them onto the
// engine changed no numbers).
const nodeSeedStride = 1009

// Run validates the spec and executes the full (policy × point × rep) grid
// on a bounded worker pool. Every cell runs on private state seeded only by
// the spec, so the result is deterministic regardless of pool interleaving.
// A failed cell stops dispatch of the cells after it; the returned error is
// always the lowest-index failing cell's, so failures too are deterministic.
// Run is Plan → RunCell (pooled) → Merge; callers that want to schedule,
// distribute or cache individual cells use those pieces directly.
func Run(s Spec) (*Result, error) {
	p, err := NewPlan(s)
	if err != nil {
		return nil, err
	}
	spec := p.Spec
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(p.Cells) {
		workers = len(p.Cells)
	}
	results := make([]RunMetrics, len(p.Cells))
	errs := make([]error, len(p.Cells))
	prog := newProgress(spec.Progress, len(p.Cells))
	ch := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := NewCellState()
			for ci := range ch {
				c := p.Cells[ci]
				rm, err := p.RunCellState(st, c)
				if err != nil {
					errs[ci] = fmt.Errorf("scenario %q: %s: %w", spec.Name, p.CellLabel(c), err)
					failed.Store(true)
				} else {
					results[ci] = rm
				}
				prog.cellDone()
			}
		}()
	}
	// Dispatch in cell order and stop feeding once any cell fails:
	// in-flight cells finish, undispatched ones are abandoned. The error
	// scan below still reports the lowest failing cell index — the
	// unbuffered channel hands cells out in index order, so every cell
	// below a recorded failure was dispatched and has recorded its own
	// outcome by the time the pool drains.
	for ci := range p.Cells {
		if failed.Load() {
			break
		}
		ch <- ci
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	byHash := make(map[string]RunMetrics, len(p.Cells))
	for i, c := range p.Cells {
		byHash[c.Hash] = results[i]
	}
	return Merge(p, byHash)
}

// progressReporter serializes Progress-hook invocations so the hook
// observes a strictly monotonic done count even though cells finish on
// concurrent workers. (An atomic counter alone is not enough: two workers
// can increment in one order and invoke the hook in the other.)
type progressReporter struct {
	fn    func(done, total int)
	total int
	mu    sync.Mutex
	done  int
}

// newProgress reports (0, total) up front, like Run always has.
func newProgress(fn func(done, total int), total int) *progressReporter {
	pr := &progressReporter{fn: fn, total: total}
	if fn != nil {
		fn(0, total)
	}
	return pr
}

// cellDone records one finished cell and reports it. The hook runs under
// the reporter's lock, so it must not block for long.
func (pr *progressReporter) cellDone() {
	if pr.fn == nil {
		return
	}
	pr.mu.Lock()
	pr.done++
	pr.fn(pr.done, pr.total)
	pr.mu.Unlock()
}

// MustRun is Run but panics on error; intended for spec tables whose specs
// are static literals already covered by tests.
func MustRun(s Spec) *Result {
	res, err := Run(s)
	if err != nil {
		panic(err)
	}
	return res
}

// runCell executes one repetition of one cell: one runtime per node — a
// single one for every kind but HeatDist — all on one engine, started in
// node order and drained by one Engine.Run. st supplies the worker's
// reusable engine, runtimes and probes; rec, when non-nil,
// receives the cell's schedule trace; probed attaches a probe per node and
// fills RunMetrics.Sched (and, with rec, emits queue/PTT/utilization
// counter lanes). The trace and Sched place the nodes side by side, node
// k's cores renumbered from k×cores. None of these change the metrics,
// which carry the cell's seed.
func (p *Plan) runCell(st *CellState, c CellJob, rec *trace.Recorder, probed bool) (RunMetrics, error) {
	s := p.Spec
	if c.Policy < 0 || c.Policy >= len(s.Policies) || c.Point < 0 || c.Point >= len(s.Points) {
		return RunMetrics{}, fmt.Errorf("scenario %q: cell (%d,%d) outside the %dx%d grid",
			s.Name, c.Policy, c.Point, len(s.Policies), len(s.Points))
	}
	if hook := runCellHook; hook != nil {
		if rm, err, handled := hook(p, c); handled {
			return rm, err
		}
	}
	pt := s.Points[c.Point]
	engine := st.engineFor()
	nodes := 1
	var hd *workloads.HeatDist
	var net *simnet.Network
	// cw is the point's compiled workload: single-node graph instances
	// come from its pool instead of the builder.
	var cw *compiledWorkload
	if s.Workload.Kind == HeatDist {
		hd = workloads.NewHeatDist(s.Workload.Heat)
		net = simnet.New(engine, s.Latency, s.Bandwidth)
		nodes = hd.Nodes
	} else {
		cw = p.compiled[c.Point]
	}
	rts, probes := st.nodes(nodes)
	var recs []*trace.Recorder // per-node recorders, nil when untraced
	if rec != nil {
		recs = []*trace.Recorder{rec}
		if nodes > 1 {
			// Nodes record privately and fold into rec after the run,
			// when their cores move to the cell-wide numbering.
			recs = make([]*trace.Recorder, nodes)
			for i := range recs {
				recs[i] = trace.New()
			}
		}
	}
	var g *dag.Graph // the last node's graph: cw's instance on single-node cells
	for node := 0; node < nodes; node++ {
		topo, err := nodePlatform(s, node)
		if err != nil {
			return RunMetrics{}, err
		}
		model := machine.New(topo)
		for _, d := range s.Disturb {
			if d.Node == node {
				d.apply(model)
			}
		}
		cfg := simrt.Config{
			Topo:   topo,
			Model:  model,
			Policy: s.Policies[c.Policy],
			Alpha:  cellAlpha(s, pt),
			Seed:   c.Seed + uint64(node)*nodeSeedStride,
			Engine: engine,
		}
		if recs != nil {
			cfg.Trace = recs[node]
		}
		if hd != nil {
			g = hd.BuildNode(node)
			cfg.Hook = hd.Hook(net)
		} else {
			g, err = cw.acquire()
		}
		if err != nil {
			return RunMetrics{}, err
		}
		if probed {
			if probes[node] == nil {
				probes[node] = simrt.NewProbe()
			}
			cfg.Probe = probes[node]
		}
		// A pooled runtime is recycled with Reset, and New is Reset on a
		// zero runtime, so the cell's metrics cannot depend on what ran
		// before.
		if rts[node] == nil {
			rts[node], err = simrt.New(cfg)
		} else {
			err = rts[node].Reset(cfg)
		}
		if err != nil {
			return RunMetrics{}, err
		}
		if err := rts[node].Start(g); err != nil {
			return RunMetrics{}, nodeErr(net, node, err)
		}
	}
	engine.Run()
	for node, rt := range rts {
		if err := rt.Check(); err != nil {
			return RunMetrics{}, nodeErr(net, node, err)
		}
	}
	rm := collectRun(rts)
	rm.Seed = c.Seed
	if rec != nil {
		off := 0
		for node, rt := range rts {
			if probed {
				probes[node].EmitCounters(recs[node], 0)
			}
			if nodes > 1 {
				foldNodeTrace(rec, recs[node], node, off)
			}
			off += rt.Collector().Platform().NumCores()
		}
		if probed {
			rec.AddUtilCounters(0, rm.Makespan)
		}
	}
	// Recycle the instance only after a clean run; a stalled or failed
	// graph is dropped rather than reset.
	if cw != nil {
		cw.release(g)
	}
	return rm, nil
}

// nodeErr names the node, and the interconnect's unmatched messages, in a
// distributed cell's error; single-node errors pass through.
func nodeErr(net *simnet.Network, node int, err error) error {
	if net == nil {
		return err
	}
	return fmt.Errorf("node %d (pending msgs: %d): %w", node, net.Pending(), err)
}

// foldNodeTrace copies one node's private trace into the cell recorder,
// moving its cores to [off, off+cores) and naming its counter lanes after
// the node.
func foldNodeTrace(dst, src *trace.Recorder, node, off int) {
	for _, ev := range src.Events() {
		ev.Core += off
		ev.Leader += off
		dst.Add(ev)
	}
	for _, cp := range src.Counters() {
		cp.Name = fmt.Sprintf("%s (node %d)", cp.Name, node)
		dst.AddCounter(cp)
	}
}

// nodePlatform builds the platform for one distributed node. The
// "haswell-node" preset tags each node's clusters with its node id, like
// the paper's four-node cluster; any other platform is replicated as-is.
func nodePlatform(s Spec, node int) (*topology.Platform, error) {
	if s.Platform.Preset == "haswell-node" && len(s.Platform.Clusters) == 0 && s.Platform.WidthCap == 0 {
		return topology.HaswellNode(node), nil
	}
	return s.Platform.Build()
}

// cellAlpha resolves the PTT weight for a point.
func cellAlpha(s Spec, pt Point) float64 {
	if pt.Alpha > 0 {
		return pt.Alpha
	}
	return s.Alpha
}

// buildGraph constructs the task graph for a single-runtime cell.
func buildGraph(w WorkloadSpec, pt Point) (*dag.Graph, error) {
	switch w.Kind {
	case Synthetic:
		cfg := w.Synthetic
		if pt.Parallelism > 0 {
			cfg.Parallelism = pt.Parallelism
		}
		if pt.Tile > 0 {
			cfg.Tile = pt.Tile
		}
		return applyCriticality(workloads.BuildSynthetic(cfg.Defaults()), w.Criticality), nil
	case KMeans:
		return workloads.NewKMeans(w.KMeans).Build(), nil
	case DAGFile:
		g, err := w.DAG.Build()
		if err != nil {
			return nil, err
		}
		return applyCriticality(g, w.Criticality), nil
	case DAGGen:
		cfg := w.DAGGen
		// The sweep axis parameterizes the generator like it does the
		// synthetic builder: Parallelism overrides the layer/fork
		// width, Tile the tile-grid edge of the factorizations.
		if pt.Parallelism > 0 {
			cfg.Width = pt.Parallelism
		}
		if pt.Tile > 0 {
			cfg.Tiles = pt.Tile
		}
		gs, err := cfg.Graph()
		if err != nil {
			return nil, err
		}
		g, err := gs.Build()
		if err != nil {
			return nil, err
		}
		return applyCriticality(g, w.Criticality), nil
	default:
		return nil, fmt.Errorf("unsupported workload kind %v", w.Kind)
	}
}

// applyCriticality rewrites the graph's priority annotations for the
// CritInferred and CritNone variants; CritUser keeps the builder's own
// high marks.
func applyCriticality(g *dag.Graph, variant string) *dag.Graph {
	switch variant {
	case CritInferred:
		g.ClearPriorities()
		g.InferCriticality(1.0, false)
	case CritNone:
		g.ClearPriorities()
	}
	return g
}

// apply installs the disturbance into the model. The spec was validated,
// so parameter errors cannot occur here.
func (d Disturbance) apply(m *machine.Model) {
	cores := d.Cores
	if len(cores) == 0 {
		cores = m.Platform().CoresOf(d.Cluster)
	}
	switch d.Kind {
	case CoRunCPU:
		if d.From == 0 && d.To == 0 {
			interfere.CoRunCPU(m, cores, d.Share)
		} else {
			interfere.CoRunCPUEpisode(m, cores, d.Share, d.From, d.To)
		}
	case CoRunMemory:
		interfere.CoRunMemory(m, cores[0], d.Share, d.BWFactor)
	case DVFS:
		interfere.DVFS(m, d.Cluster, d.HiHz, d.LoHz, d.HiDur, d.LoDur)
	case Stall:
		for _, c := range cores {
			interfere.Stall(m, c, d.From, d.To)
		}
	case Burst:
		interfere.BurstCPU(m, cores, d.Share, d.BusyDur, d.IdleDur, d.Phase0, d.PhaseStep)
	case Throttle:
		steps := d.RampSteps
		if steps == 0 {
			steps = 8
		}
		interfere.ThrottleRamp(m, d.Cluster, d.From, d.To, d.Floor, steps)
	}
}

// collectRun extracts RunMetrics from a cell's node runtimes. A single
// node's metrics pass through as its collector reports them. Distributed
// nodes merge: the makespan is the latest node's and throughput is
// recomputed over it, counts add, the high-priority histograms merge, and
// the per-core views (CoreBusy, Sched) place the nodes side by side in node
// order, Sched rendering every node over the cell's makespan.
func collectRun(rts []*simrt.Runtime) RunMetrics {
	if len(rts) == 1 {
		return nodeRun(rts[0])
	}
	var rm RunMetrics
	hists := make([][]metrics.PlaceShare, 0, len(rts))
	for _, rt := range rts {
		coll := rt.Collector()
		rm.Makespan = max(rm.Makespan, coll.Makespan())
		rm.TasksDone += coll.TasksDone()
		rm.CoreBusy = append(rm.CoreBusy, coll.CoreBusy()...)
		addCounters(&rm, rt)
		hists = append(hists, coll.PlaceHistogram(true))
	}
	rm.HighHist = mergeHists(hists...)
	if rm.Makespan > 0 {
		rm.Throughput = float64(rm.TasksDone) / rm.Makespan
	}
	for _, rt := range rts {
		if s := rt.Sched(rm.Makespan); s != nil {
			if rm.Sched == nil {
				rm.Sched = s
			} else {
				rm.Sched.Beside(s)
			}
		}
	}
	return rm
}

// nodeRun extracts RunMetrics from one runtime's collector.
func nodeRun(rt *simrt.Runtime) RunMetrics {
	coll := rt.Collector()
	rm := RunMetrics{
		Throughput: coll.Throughput(),
		Makespan:   coll.Makespan(),
		TasksDone:  coll.TasksDone(),
		CoreBusy:   coll.CoreBusy(),
		HighHist:   coll.PlaceHistogram(true),
		Iters:      coll.IterStats(),
		Sched:      rt.Sched(coll.Makespan()),
	}
	addCounters(&rm, rt)
	return rm
}

// addCounters adds a runtime's per-core scheduler counters to rm.
func addCounters(rm *RunMetrics, rt *simrt.Runtime) {
	for _, st := range rt.CoreStats() {
		rm.Steals += st.Steals
		rm.FailedSteals += st.FailedSteals
		rm.Dispatches += st.Dispatches
	}
}
