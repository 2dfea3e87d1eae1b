// Package scenario turns declarative simulation specs into deterministic
// runs. A Spec names a platform, a workload, a set of time-varying
// disturbances (interference, DVFS, thermal throttling), a policy set and a
// sweep axis; Run validates it, executes every (policy × point × repetition)
// cell on a bounded worker pool, and returns the aggregated metrics.
//
// Every run is a Spec, and the named ones are registered Families: the
// paper's figures and ablations (paper.go) and families the paper never
// ran (registry.go: bursty phase-shifted interference, thermal-throttle
// ramps, 16–64-core scale-out platforms, imported and generated DAGs).
// A family is a Spec generator plus an optional view for what the
// throughput table cannot show; a new platform/interference/workload
// combination costs a struct literal, not a new driver.
//
// Determinism: a Spec plus its Seed fully determine every metric of every
// cell, bit for bit, regardless of the worker pool's interleaving. Each
// cell runs on a private simulated runtime seeded from (Seed, repetition);
// results are written into pre-indexed slots, never appended.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/interfere"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// PlatformSpec selects the simulated machine: a named preset, optionally
// width-capped, or an explicit cluster list.
type PlatformSpec struct {
	// Preset names a built-in platform: "tx2", "haswell16", "haswell-node",
	// "sym<N>" (e.g. "sym8"), or "scaleout-<clusters>x<cores>"
	// (e.g. "scaleout-4x4" = 16 cores in 4 clusters). Ignored when Clusters
	// is set.
	Preset string
	// Clusters builds a custom platform (see topology.New for the rules).
	Clusters []topology.Cluster
	// WidthCap, when > 0, drops every width above it (1 disables
	// moldability entirely — the width ablation).
	WidthCap int
}

// Build constructs the platform.
func (p PlatformSpec) Build() (*topology.Platform, error) {
	var base *topology.Platform
	switch {
	case len(p.Clusters) > 0:
		var err error
		base, err = topology.New(p.Clusters)
		if err != nil {
			return nil, err
		}
	default:
		var err error
		base, err = presetPlatform(p.Preset)
		if err != nil {
			return nil, err
		}
	}
	if p.WidthCap < 0 {
		return nil, fmt.Errorf("scenario: negative width cap %d", p.WidthCap)
	}
	if p.WidthCap > 0 {
		cs := make([]topology.Cluster, base.NumClusters())
		for i := range cs {
			c := base.Cluster(i)
			var ws []int
			for _, w := range c.Widths {
				if w <= p.WidthCap {
					ws = append(ws, w)
				}
			}
			c.Widths = ws
			cs[i] = c
		}
		return topology.New(cs)
	}
	return base, nil
}

func presetPlatform(name string) (*topology.Platform, error) {
	switch name {
	case "tx2":
		return topology.TX2(), nil
	case "haswell16":
		return topology.Haswell16(), nil
	case "haswell-node":
		return topology.HaswellNode(0), nil
	}
	// Round-trip the parsed shape back into a name: Sscanf alone accepts
	// trailing garbage, which would silently map typos onto a different
	// platform than the user asked for.
	var n int
	if _, err := fmt.Sscanf(name, "sym%d", &n); err == nil && fmt.Sprintf("sym%d", n) == name {
		if n < 1 || n&(n-1) != 0 {
			return nil, fmt.Errorf("scenario: sym platform size %d is not a power of two", n)
		}
		return topology.Symmetric(n), nil
	}
	var nc, cp int
	if _, err := fmt.Sscanf(name, "scaleout-%dx%d", &nc, &cp); err == nil && fmt.Sprintf("scaleout-%dx%d", nc, cp) == name {
		if nc < 1 || cp < 1 {
			return nil, fmt.Errorf("scenario: bad scale-out shape %q", name)
		}
		return topology.ScaleOut(nc, cp), nil
	}
	return nil, fmt.Errorf("scenario: unknown platform preset %q (want tx2, haswell16, haswell-node, sym<N> or scaleout-<C>x<N>)", name)
}

// WorkloadKind selects the task-graph generator.
type WorkloadKind int

const (
	// Synthetic is the paper's layered DAG of one kernel class.
	Synthetic WorkloadKind = iota
	// KMeans is the iterative clustering DAG (Figure 9).
	KMeans
	// HeatDist is the distributed 2D Heat stencil (Figure 10): one runtime
	// per node on a shared virtual clock and a simulated interconnect.
	HeatDist
	// DAGFile executes an imported task graph (GraphViz DOT or the
	// dagio JSON schema). The spec carries the loaded graph, never the
	// source path: canonically it encodes — and hashes — as the
	// normalized graph content, so the same graph imported from any
	// file, in any declaration order, is one cached workload.
	DAGFile
	// DAGGen executes a deterministically generated classic task graph
	// (tiled Cholesky, tiled LU, fork-join chains, seeded random
	// layered DAGs); see dagio.GenConfig.
	DAGGen
)

// workloadKinds lists every valid kind once; validation and the
// canonical codec both range over it, so adding a kind cannot leave one
// of them behind.
var workloadKinds = []WorkloadKind{Synthetic, KMeans, HeatDist, DAGFile, DAGGen}

// String names the kind for reports and errors.
func (k WorkloadKind) String() string {
	switch k {
	case Synthetic:
		return "synthetic"
	case KMeans:
		return "kmeans"
	case HeatDist:
		return "heatdist"
	case DAGFile:
		return "dagfile"
	case DAGGen:
		return "daggen"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// Criticality variants for the workload's priority annotations.
const (
	// CritUser keeps the generator's own high-priority marks (default).
	CritUser = ""
	// CritInferred replaces them with CATS-style path-slack inference.
	CritInferred = "inferred"
	// CritNone strips all priority annotations.
	CritNone = "none"
)

// WorkloadSpec describes the task graph each cell executes.
type WorkloadSpec struct {
	Kind      WorkloadKind
	Synthetic workloads.SyntheticConfig
	KMeans    workloads.KMeansConfig
	Heat      workloads.HeatDistConfig
	// DAG is the imported task graph executed when Kind is DAGFile
	// (load one with dagio.LoadFile or the parsers).
	DAG *dagio.GraphSpec
	// DAGGen parameterizes the generated graph when Kind is DAGGen.
	DAGGen dagio.GenConfig
	// Criticality selects the priority-annotation variant: CritUser,
	// CritInferred or CritNone. Synthetic, DAGFile and DAGGen graphs
	// only (the importers' own high marks are the "user" annotations).
	Criticality string
}

// Disturbance kinds.
type DisturbKind int

const (
	// CoRunCPU time-shares the victim cores with a compute-bound
	// co-runner, optionally only during [From, To).
	CoRunCPU DisturbKind = iota
	// CoRunMemory time-shares one victim core and takes memory bandwidth
	// from its whole cluster (whole-run only).
	CoRunMemory
	// DVFS installs a square-wave clock on a cluster.
	DVFS
	// Stall makes the cores contribute nothing during [From, To).
	Stall
	// Burst runs phase-shifted intermittent co-runners on the victim
	// cores: busy for BusyDur, idle for IdleDur, each successive core
	// shifted by PhaseStep seconds.
	Burst
	// Throttle ramps a cluster's clock down to Floor×base over [From, To)
	// in RampSteps plateaus and holds it there (thermal throttle).
	Throttle
)

// String names the kind for errors and reports.
func (k DisturbKind) String() string {
	switch k {
	case CoRunCPU:
		return "corun-cpu"
	case CoRunMemory:
		return "corun-mem"
	case DVFS:
		return "dvfs"
	case Stall:
		return "stall"
	case Burst:
		return "burst"
	case Throttle:
		return "throttle"
	default:
		return fmt.Sprintf("DisturbKind(%d)", int(k))
	}
}

// Disturbance is one time-varying degradation of the platform. The zero
// window (From == To == 0) means the whole run for the co-runner kinds;
// Stall and Throttle require an explicit window.
type Disturbance struct {
	Kind DisturbKind
	// Node selects the machine model in distributed (HeatDist) scenarios;
	// single-runtime scenarios use node 0.
	Node int
	// Cores are the victim cores (CoRunCPU, Stall, Burst; first entry is
	// the victim for CoRunMemory). Empty means every core of Cluster.
	Cores []int
	// Cluster is the victim cluster for DVFS and Throttle, and the core
	// source when Cores is empty.
	Cluster int
	// Share is the core availability left to the runtime while the
	// co-runner is active (CoRunCPU, CoRunMemory, Burst).
	Share float64
	// BWFactor is the remaining fraction of cluster memory bandwidth
	// under CoRunMemory.
	BWFactor float64
	// From, To bound the episode in seconds of virtual time.
	From, To float64
	// HiHz, LoHz, HiDur, LoDur shape the DVFS square wave.
	HiHz, LoHz, HiDur, LoDur float64
	// BusyDur, IdleDur, Phase0, PhaseStep shape the Burst waves.
	BusyDur, IdleDur, Phase0, PhaseStep float64
	// Floor and RampSteps shape the Throttle ramp.
	Floor     float64
	RampSteps int
}

// PaperDVFS returns the paper's Section 5.2 DVFS square wave on a cluster
// (2035 MHz for 5 s, 345 MHz for 5 s, forever).
func PaperDVFS(cluster int) Disturbance {
	return Disturbance{
		Kind:    DVFS,
		Cluster: cluster,
		HiHz:    interfere.PaperHiHz, LoHz: interfere.PaperLoHz,
		HiDur: interfere.PaperHiDur, LoDur: interfere.PaperLoDur,
	}
}

// Point is one position on the sweep axis. Zero-valued fields keep the
// spec's base configuration, so a sweep over parallelism is just
// []Point{{Label: "2", Parallelism: 2}, ...}.
type Point struct {
	// Label names the point in results; must be unique within a spec.
	Label string
	// Parallelism overrides the synthetic DAG's tasks per layer, or a
	// daggen workload's layer/fork width.
	Parallelism int
	// Tile overrides the synthetic kernel tile size, or a daggen
	// workload's tile-grid edge (the factorization problem size).
	Tile int
	// Alpha overrides the PTT new-sample weight for this point.
	Alpha float64
}

// Spec is one declarative scenario: everything a run depends on, and
// nothing else.
type Spec struct {
	// Name labels the scenario in reports.
	Name string
	// Platform selects the machine (default: preset "tx2").
	Platform PlatformSpec
	// Workload selects the task graph.
	Workload WorkloadSpec
	// Disturb lists the platform degradations, applied before the run.
	Disturb []Disturbance
	// Policies is the scheduler set; names must be unique.
	Policies []core.Policy
	// Points is the sweep axis; empty means one default point.
	Points []Point
	// Seed drives all randomness. Repetition r of every cell uses
	// Seed + r*1000003, so rep 0 reproduces a plain single run.
	Seed uint64
	// Reps is the number of repetitions per cell (default 1).
	Reps int
	// Alpha is the base PTT new-sample weight (0 = the paper's 1/5).
	Alpha float64
	// Workers bounds the worker pool (default: GOMAXPROCS, capped by the
	// number of cells).
	Workers int
	// Latency and Bandwidth describe the interconnect for HeatDist
	// scenarios (defaults: 2 µs, 5 GB/s).
	Latency, Bandwidth float64
	// Probe, when true, attaches a scheduler-introspection probe to every
	// cell run and fills RunMetrics.Sched with the per-core time
	// breakdown, steal matrix, queue-depth and PTT-error telemetry.
	// Telemetry is pure observation — fingerprints are byte-identical
	// with Probe on or off. Execution-only like Workers (CanonicalJSON
	// and Hash ignore it). A distributed cell's breakdown
	// places its nodes side by side, as CoreBusy does.
	Probe bool
	// Progress, when non-nil, receives cell-completion updates from Run:
	// once with (0, total) before execution starts, then once after every
	// finished (policy × point × repetition) cell. Calls come from
	// concurrent worker goroutines; the hook must be safe for concurrent
	// use. Like Workers, Progress is execution plumbing, not
	// part of the scenario's identity — CanonicalJSON and Hash ignore it.
	Progress func(done, total int)
}

// withDefaults fills unset fields.
func (s Spec) withDefaults() Spec {
	if s.Platform.Preset == "" && len(s.Platform.Clusters) == 0 {
		s.Platform.Preset = "tx2"
	}
	if len(s.Points) == 0 {
		s.Points = []Point{{Label: "default"}}
	}
	if s.Reps == 0 {
		s.Reps = 1
	}
	if s.Latency == 0 {
		s.Latency = 2e-6
	}
	if s.Bandwidth == 0 {
		s.Bandwidth = 5e9
	}
	return s
}

// Validate checks the spec without running it. It is called by Run; call it
// directly to fail fast when assembling spec tables.
func (s Spec) Validate() error {
	s = s.withDefaults()
	topo, err := s.Platform.Build()
	if err != nil {
		return err
	}
	if len(s.Policies) == 0 {
		return fmt.Errorf("scenario %q: empty policy set", s.Name)
	}
	seenPol := map[string]bool{}
	for _, p := range s.Policies {
		if p == nil {
			return fmt.Errorf("scenario %q: nil policy", s.Name)
		}
		if seenPol[p.Name()] {
			return fmt.Errorf("scenario %q: duplicate policy %q", s.Name, p.Name())
		}
		seenPol[p.Name()] = true
	}
	if s.Reps < 0 {
		return fmt.Errorf("scenario %q: negative repetitions %d", s.Name, s.Reps)
	}
	if s.Alpha < 0 || s.Alpha > 1 {
		return fmt.Errorf("scenario %q: PTT alpha %v outside [0, 1]", s.Name, s.Alpha)
	}
	seenPt := map[string]bool{}
	for _, pt := range s.Points {
		if pt.Label == "" {
			return fmt.Errorf("scenario %q: point with empty label", s.Name)
		}
		if seenPt[pt.Label] {
			return fmt.Errorf("scenario %q: duplicate point label %q", s.Name, pt.Label)
		}
		seenPt[pt.Label] = true
		if pt.Parallelism < 0 {
			return fmt.Errorf("scenario %q: point %q has negative parallelism", s.Name, pt.Label)
		}
		if pt.Tile < 0 {
			return fmt.Errorf("scenario %q: point %q has negative tile", s.Name, pt.Label)
		}
		if pt.Alpha < 0 || pt.Alpha > 1 {
			return fmt.Errorf("scenario %q: point %q alpha %v outside [0, 1]", s.Name, pt.Label, pt.Alpha)
		}
	}
	known := false
	for _, k := range workloadKinds {
		if s.Workload.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("scenario %q: unknown workload kind %v (known kinds: %s)", s.Name, s.Workload.Kind, workloadKindList())
	}
	switch s.Workload.Criticality {
	case CritUser, CritInferred, CritNone:
	default:
		return fmt.Errorf("scenario %q: unknown criticality variant %q", s.Name, s.Workload.Criticality)
	}
	switch s.Workload.Kind {
	case DAGFile:
		if s.Workload.DAG == nil {
			return fmt.Errorf("scenario %q: dagfile workload has no graph (load one with dagio.LoadFile)", s.Name)
		}
		if err := s.Workload.DAG.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	case DAGGen:
		if err := s.Workload.DAGGen.Defaults().Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	// Point.Parallelism and Point.Tile parameterize the graph builder:
	// synthetic layer width/tile edge, or DAGGen width/tile-grid edge.
	// Fixed graphs (imported files, kmeans, heat) have no such axis.
	if s.Workload.Kind != Synthetic && s.Workload.Kind != DAGGen {
		for _, pt := range s.Points {
			if pt.Parallelism != 0 || pt.Tile != 0 {
				return fmt.Errorf("scenario %q: point %q sets graph-shape fields on a %v workload", s.Name, pt.Label, s.Workload.Kind)
			}
		}
	}
	switch s.Workload.Kind {
	case Synthetic, DAGFile, DAGGen:
	default:
		if s.Workload.Criticality != CritUser {
			return fmt.Errorf("scenario %q: criticality variants apply to synthetic, dagfile and daggen workloads only", s.Name)
		}
	}
	nodes := 1
	if s.Workload.Kind == HeatDist {
		nodes = s.Workload.Heat.Defaults().Nodes
	}
	if err := validateDisturbances(s.Name, topo, s.Disturb, nodes); err != nil {
		return err
	}
	if !(s.Latency >= 0) || math.IsInf(s.Latency, 1) {
		return fmt.Errorf("scenario %q: interconnect latency %v must be finite and >= 0", s.Name, s.Latency)
	}
	if !(s.Bandwidth > 0) || math.IsInf(s.Bandwidth, 1) {
		return fmt.Errorf("scenario %q: interconnect bandwidth %v must be finite and > 0", s.Name, s.Bandwidth)
	}
	return nil
}

// window is a disturbance's active interval on one resource.
type window struct {
	kind     DisturbKind
	from, to float64
}

// validateDisturbances checks every disturbance individually, then checks
// that no two disturbances claim the same resource (a core's availability,
// a cluster's clock, a cluster's memory bandwidth) over overlapping
// windows — later profiles would silently replace earlier ones.
func validateDisturbances(name string, topo *topology.Platform, ds []Disturbance, nodes int) error {
	coreWins := map[[2]int][]window{} // (node, core) → windows
	freqWins := map[[2]int][]window{} // (node, cluster) → windows
	bwWins := map[[2]int][]window{}   // (node, cluster) → windows
	for i, d := range ds {
		where := fmt.Sprintf("scenario %q: disturbance %d (%v)", name, i, d.Kind)
		if d.Node < 0 || d.Node >= nodes {
			return fmt.Errorf("%s: node %d outside [0, %d)", where, d.Node, nodes)
		}
		if d.Cluster < 0 || d.Cluster >= topo.NumClusters() {
			return fmt.Errorf("%s: cluster %d outside [0, %d)", where, d.Cluster, topo.NumClusters())
		}
		for _, c := range d.Cores {
			if c < 0 || c >= topo.NumCores() {
				return fmt.Errorf("%s: core %d outside [0, %d)", where, c, topo.NumCores())
			}
		}
		if d.From < 0 || d.To < 0 || (d.From != 0 || d.To != 0) && d.To <= d.From {
			return fmt.Errorf("%s: bad window [%g, %g)", where, d.From, d.To)
		}
		win := window{kind: d.Kind, from: d.From, to: d.To}
		if d.From == 0 && d.To == 0 {
			win.to = math.Inf(1)
		}
		cores := d.Cores
		if len(cores) == 0 {
			cores = topo.CoresOf(d.Cluster)
		}
		switch d.Kind {
		case CoRunCPU:
			if d.Share <= 0 || d.Share > 1 {
				return fmt.Errorf("%s: share %v outside (0, 1]", where, d.Share)
			}
			for _, c := range cores {
				coreWins[[2]int{d.Node, c}] = append(coreWins[[2]int{d.Node, c}], win)
			}
		case CoRunMemory:
			if d.Share <= 0 || d.Share > 1 {
				return fmt.Errorf("%s: share %v outside (0, 1]", where, d.Share)
			}
			if d.BWFactor <= 0 || d.BWFactor > 1 {
				return fmt.Errorf("%s: bandwidth factor %v outside (0, 1]", where, d.BWFactor)
			}
			if d.From != 0 || d.To != 0 {
				return fmt.Errorf("%s: episode windows are not supported for memory co-runners", where)
			}
			victim := cores[0]
			coreWins[[2]int{d.Node, victim}] = append(coreWins[[2]int{d.Node, victim}], win)
			ci := topo.ClusterOf(victim)
			bwWins[[2]int{d.Node, ci}] = append(bwWins[[2]int{d.Node, ci}], win)
		case DVFS:
			if d.HiHz <= 0 || d.LoHz <= 0 || d.HiDur <= 0 || d.LoDur <= 0 {
				return fmt.Errorf("%s: wave needs positive HiHz, LoHz, HiDur, LoDur", where)
			}
			if d.From != 0 || d.To != 0 {
				return fmt.Errorf("%s: windows are not supported for periodic waves (the wave runs forever)", where)
			}
			freqWins[[2]int{d.Node, d.Cluster}] = append(freqWins[[2]int{d.Node, d.Cluster}], win)
		case Stall:
			if d.From == 0 && d.To == 0 {
				return fmt.Errorf("%s: needs an explicit window", where)
			}
			for _, c := range cores {
				coreWins[[2]int{d.Node, c}] = append(coreWins[[2]int{d.Node, c}], win)
			}
		case Burst:
			if d.Share <= 0 || d.Share > 1 {
				return fmt.Errorf("%s: share %v outside (0, 1]", where, d.Share)
			}
			if d.BusyDur <= 0 || d.IdleDur <= 0 {
				return fmt.Errorf("%s: needs positive BusyDur and IdleDur", where)
			}
			if d.From != 0 || d.To != 0 {
				return fmt.Errorf("%s: windows are not supported for periodic waves (the wave runs forever)", where)
			}
			for _, c := range cores {
				coreWins[[2]int{d.Node, c}] = append(coreWins[[2]int{d.Node, c}], win)
			}
		case Throttle:
			if d.From == 0 && d.To == 0 {
				return fmt.Errorf("%s: needs an explicit window", where)
			}
			if d.Floor <= 0 || d.Floor >= 1 {
				return fmt.Errorf("%s: floor %v outside (0, 1)", where, d.Floor)
			}
			if d.RampSteps < 0 {
				return fmt.Errorf("%s: negative ramp steps", where)
			}
			// The floor persists beyond To: the clock never recovers.
			win.to = math.Inf(1)
			freqWins[[2]int{d.Node, d.Cluster}] = append(freqWins[[2]int{d.Node, d.Cluster}], win)
		default:
			return fmt.Errorf("%s: unknown disturbance kind", where)
		}
	}
	for what, wins := range map[string]map[[2]int][]window{
		"core availability": coreWins,
		"cluster clock":     freqWins,
		"memory bandwidth":  bwWins,
	} {
		for key, ws := range wins {
			if a, b, clash := overlapping(ws); clash {
				return fmt.Errorf("scenario %q: overlapping %s disturbances on node %d resource %d (%v [%g, %g) and %v [%g, %g))",
					name, what, key[0], key[1], a.kind, a.from, a.to, b.kind, b.from, b.to)
			}
		}
	}
	return nil
}

// overlapping reports whether any two windows intersect.
func overlapping(ws []window) (a, b window, clash bool) {
	sorted := append([]window(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].from < sorted[j].from })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].from < sorted[i-1].to {
			return sorted[i-1], sorted[i], true
		}
	}
	return window{}, window{}, false
}
