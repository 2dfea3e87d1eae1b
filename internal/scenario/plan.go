package scenario

// Plan / RunCell / Merge split Run's monolithic grid loop into first-class
// schedulable units. A Plan enumerates every (policy × point × repetition)
// cell of a validated spec in Run's execution order; RunCell executes one
// cell as a pure function of the plan and the cell's coordinates; Merge
// reassembles cell results into a Result that is bit-identical to what a
// monolithic Run of the same spec produces.
//
// Each CellJob carries a canonical hash — the cell-granular cache key used
// by internal/service. The hash covers the spec's cell-invariant fields
// (platform, workload, disturbances, alpha, interconnect; see cellBase in
// canonical.go) plus the cell's own policy name, point parameters and
// derived seed. It deliberately excludes the spec's name, its grid axes and
// the point label: none of them change the cell's metrics, so two
// overlapping specs — say, a sweep and the same sweep with one extra point —
// share the hashes of their common cells and a cell cache can serve the
// overlap without re-simulating.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"dynasym/internal/trace"
)

// CellJob identifies one cell of a plan's grid: indexes into the plan
// spec's Policies/Points axes, the repetition number, the derived runtime
// seed, and the canonical cell hash.
type CellJob struct {
	// Policy and Point index Plan.Spec.Policies and Plan.Spec.Points.
	Policy, Point int
	// Rep is the repetition number in [0, Spec.Reps).
	Rep int
	// Seed is the runtime seed this cell runs with
	// (Spec.Seed + Rep*repSeedStride).
	Seed uint64
	// Hash is the canonical per-cell cache key.
	Hash string
}

// Plan is a spec expanded into its cell shards.
type Plan struct {
	// Spec is the normalized (withDefaults) and validated spec.
	Spec Spec
	// Hash is the spec's canonical hash (the job-level key).
	Hash string
	// Canonical is the canonical JSON encoding Hash is the sha256 of,
	// kept so shard senders can ship the spec without re-marshaling it
	// per shard (a dagfile spec embeds its whole graph; re-encoding it
	// for every shard attempt of a large grid is pure waste).
	Canonical []byte
	// Cells enumerates the grid policy-major, then point, then repetition —
	// exactly the order Run executes.
	Cells []CellJob

	// compiled holds, per point index, the shared compiled workload the
	// point's cells run on (nil for a workload kind with no compiled form,
	// whose cells build their graphs per run). Compilation is lazy:
	// entries compile on the first cell that runs, so plans that are
	// merged purely from cached results never build a graph.
	compiled []*compiledWorkload
	// variant maps each point index to a dense workload-variant id —
	// points with equal ids share one compiled graph. Backends group
	// same-variant cells so a worker sweeps one graph's cells back to
	// back (see PointVariant).
	variant []int
}

// NewPlan validates the spec and expands it into cell jobs.
func NewPlan(s Spec) (*Plan, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	canonical, err := s.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canonical)
	hash := hex.EncodeToString(sum[:])
	base, err := s.cellBase()
	if err != nil {
		return nil, err
	}
	cells := make([]CellJob, 0, len(s.Policies)*len(s.Points)*s.Reps)
	for pi, pol := range s.Policies {
		for xi, pt := range s.Points {
			for rep := 0; rep < s.Reps; rep++ {
				seed := s.Seed + uint64(rep)*repSeedStride
				cells = append(cells, CellJob{
					Policy: pi, Point: xi, Rep: rep,
					Seed: seed,
					Hash: cellHash(base, pol.Name(), pt, seed),
				})
			}
		}
	}
	compiled, variant, err := compileWorkloads(s)
	if err != nil {
		return nil, err
	}
	return &Plan{Spec: s, Hash: hash, Canonical: canonical, Cells: cells,
		compiled: compiled, variant: variant}, nil
}

// cellHashVersion tags the engine generation in every cell hash. Bump it
// whenever a change alters the simulated metrics of an unchanged spec
// (scheduler behavior, kernel cost models, seeding) — the canonical spec
// encoding cannot see such changes, so without this tag a version-skewed
// peer would serve old-engine results under the same keys and silently
// mix engine outputs inside one merged Result.
const cellHashVersion = "cell-v1"

// cellHash derives the canonical cell key from the engine generation, the
// spec's cell-invariant base encoding and the cell's own coordinates. The
// point label is excluded: it names the point in reports but cannot
// change the metrics.
func cellHash(base []byte, policy string, pt Point, seed uint64) string {
	h := sha256.New()
	h.Write([]byte(cellHashVersion))
	h.Write([]byte{0})
	h.Write(base)
	fmt.Fprintf(h, "\x00policy=%s\x00parallelism=%d\x00tile=%d\x00alpha=%x\x00seed=%d",
		policy, pt.Parallelism, pt.Tile, math.Float64bits(pt.Alpha), seed)
	return hex.EncodeToString(h.Sum(nil))
}

// Cell returns the plan cell at grid position (policy, point, rep); the
// position must be in range (plans enumerate the full grid).
func (p *Plan) Cell(policy, point, rep int) (CellJob, error) {
	if policy < 0 || policy >= len(p.Spec.Policies) ||
		point < 0 || point >= len(p.Spec.Points) ||
		rep < 0 || rep >= p.Spec.Reps {
		return CellJob{}, fmt.Errorf("scenario %q: cell (%d,%d,%d) outside the %dx%dx%d grid",
			p.Spec.Name, policy, point, rep, len(p.Spec.Policies), len(p.Spec.Points), p.Spec.Reps)
	}
	return p.Cells[(policy*len(p.Spec.Points)+point)*p.Spec.Reps+rep], nil
}

// CellLabel renders a cell's coordinates for error messages and logs,
// matching Run's historical error context ("DAM-C at P4 (rep 1)").
func (p *Plan) CellLabel(c CellJob) string {
	return fmt.Sprintf("%s at %s (rep %d)",
		p.Spec.Policies[c.Policy].Name(), p.Spec.Points[c.Point].Label, c.Rep)
}

// PointVariant returns the dense workload-variant id of a point index:
// points with equal ids run structurally identical graphs from one
// compiled workload. Backends order cells by variant so each worker sweeps
// one compiled graph's cells back to back.
func (p *Plan) PointVariant(point int) int {
	if point < 0 || point >= len(p.variant) {
		return 0
	}
	return p.variant[point]
}

// runCellHook, when non-nil, intercepts cell execution. Tests use it to
// inject deterministic mid-grid failures that the public spec surface
// cannot produce.
var runCellHook func(p *Plan, c CellJob) (RunMetrics, error, bool)

// RunCell executes one cell. It is a pure function of the plan's spec and
// the cell's coordinates: same cell, same metrics, bit for bit, no matter
// where or when it runs. The returned metrics carry the cell's seed.
func (p *Plan) RunCell(c CellJob) (RunMetrics, error) {
	return p.RunCellState(NewCellState(), c)
}

// RunCellState is RunCell with caller-owned scratch state: a sweep worker
// allocates one CellState and passes it to every cell it runs, so engine
// event storage, runtimes and probes are reused across the sweep. The state
// never influences the metrics — RunCellState(st, c) and RunCell(c) are
// bit-identical.
func (p *Plan) RunCellState(st *CellState, c CellJob) (RunMetrics, error) {
	return p.runCell(st, c, nil, p.Spec.Probe)
}

// RunCellTrace executes one cell with a private schedule recorder and
// introspection probe, regardless of the plan spec's Probe setting.
// Cells are pure functions of the plan and the cell coordinates, so the
// returned trace is exactly the schedule the cell's canonical result came
// from — whether that result was originally computed here, on a remote
// shard, or served from a cache. The recorder holds the task slices plus
// queue-depth, ready-task, PTT-error and per-core-utilization counter
// lanes; the returned metrics carry the Sched aggregate.
func (p *Plan) RunCellTrace(c CellJob) (RunMetrics, *trace.Recorder, error) {
	rec := trace.New()
	rm, err := p.runCell(NewCellState(), c, rec, true)
	if err != nil {
		return RunMetrics{}, nil, err
	}
	return rm, rec, nil
}

// Merge assembles cell results (keyed by cell hash) into the plan's
// Result. Every plan cell must be present; cells sharing a hash (identical
// parameters under different labels) fill from the one shared result. The
// output is bit-identical to a monolithic Run of the plan's spec.
func Merge(p *Plan, cells map[string]RunMetrics) (*Result, error) {
	topo, err := p.Spec.Platform.Build()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:     p.Spec.Name,
		Topo:     topo,
		Policies: make([]string, len(p.Spec.Policies)),
		Points:   append([]Point(nil), p.Spec.Points...),
		Cells:    make([][]Cell, len(p.Spec.Policies)),
	}
	for pi, pol := range p.Spec.Policies {
		res.Policies[pi] = pol.Name()
		res.Cells[pi] = make([]Cell, len(p.Spec.Points))
		for xi, pt := range p.Spec.Points {
			res.Cells[pi][xi] = Cell{Policy: pol.Name(), Point: pt, Runs: make([]RunMetrics, p.Spec.Reps)}
		}
	}
	for _, c := range p.Cells {
		rm, ok := cells[c.Hash]
		if !ok {
			return nil, fmt.Errorf("scenario %q: missing cell result for %s", p.Spec.Name, p.CellLabel(c))
		}
		res.Cells[c.Policy][c.Point].Runs[c.Rep] = rm
	}
	return res, nil
}
