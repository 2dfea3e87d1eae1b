// Package dynasym is a task-parallel runtime library with schedulers that
// adapt to dynamically asymmetric platforms — cores whose effective speed
// is unknown and changes over time because of interference from co-running
// applications or DVFS.
//
// It reproduces the system described in
//
//	Chen, Soomro, Abduljabbar, Manivannan, Pericàs.
//	"Scheduling Task-parallel Applications in Dynamically Asymmetric
//	Environments", ICPP Workshops 2020 (arXiv:2009.00915),
//
// including the XiTAO-style moldable-task execution model, the Performance
// Trace Table online performance model, and the seven scheduling policies
// of the paper's Table 1 (RWS, RWSM-C, FA, FAM-C, DA, DAM-C, DAM-P).
//
// Two execution engines share the same scheduler code:
//
//   - Run executes graphs with real goroutine workers and wall-clock
//     timing (package internal/xtr);
//   - Simulate executes graphs on a deterministic discrete-event model of
//     an asymmetric platform with controllable interference and DVFS
//     (package internal/simrt) — this is how the paper's figures are
//     reproduced: each is a scenario family in internal/scenario, run by
//     cmd/asymbench -scenario and the cmd/asymd service.
//
// A minimal real run:
//
//	g := dynasym.NewGraph()
//	a := g.Add(&dynasym.Task{Label: "a", Body: func(dynasym.Exec) { ... }})
//	g.Add(&dynasym.Task{Label: "b", Body: ..., High: true}, a)
//	res, err := dynasym.Run(g, dynasym.RunConfig{
//		Platform: dynasym.SymmetricPlatform(4),
//		Policy:   dynasym.DAMC(),
//	})
package dynasym

import (
	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/metrics"
	"dynasym/internal/ptt"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/xtr"
)

// Core model types, re-exported for the public API.
type (
	// Platform describes cores grouped into clusters with valid moldable
	// widths.
	Platform = topology.Platform
	// Cluster is one resource partition of a Platform.
	Cluster = topology.Cluster
	// Place is an execution place: (leader core, resource width).
	Place = topology.Place
	// Policy is a scheduling policy (see Policies).
	Policy = core.Policy
	// Graph is a task graph; build with NewGraph and Graph.Add.
	Graph = dag.Graph
	// Task is one node of a Graph.
	Task = dag.Task
	// Exec tells a task body which partition of a moldable place to
	// compute.
	Exec = dag.Exec
	// Cost describes a task to the simulator's machine model.
	Cost = machine.Cost
	// Collector accumulates execution metrics.
	Collector = metrics.Collector
	// TypeID identifies a task type (one Performance Trace Table per
	// type).
	TypeID = ptt.TypeID
)

// Platform constructors.

// TX2 returns the paper's NVIDIA Jetson TX2 platform model (2 fast Denver
// cores + 4 A57 cores).
func TX2() *Platform { return topology.TX2() }

// Haswell16 returns the paper's 16-core dual-socket Haswell platform model.
func Haswell16() *Platform { return topology.Haswell16() }

// SymmetricPlatform returns n identical cores in one cluster with
// power-of-two widths (n must be a power of two).
func SymmetricPlatform(n int) *Platform { return topology.Symmetric(n) }

// NewPlatform builds a custom platform from clusters.
func NewPlatform(clusters []Cluster) (*Platform, error) { return topology.New(clusters) }

// Scheduling policies (the paper's Table 1).

// RWS returns the random work-stealing baseline.
func RWS() Policy { return core.RWS() }

// RWSMC returns random work stealing with moldability (resource-cost
// objective).
func RWSMC() Policy { return core.RWSMC() }

// FA returns the fixed-asymmetry criticality scheduler.
func FA() Policy { return core.FA() }

// FAMC returns the fixed-asymmetry scheduler with moldability.
func FAMC() Policy { return core.FAMC() }

// DA returns the dynamic asymmetry scheduler without moldability.
func DA() Policy { return core.DA() }

// DAMC returns the dynamic asymmetry scheduler with moldability targeting
// parallel cost (the paper's DAM-C).
func DAMC() Policy { return core.DAMC() }

// DAMP returns the dynamic asymmetry scheduler with moldability targeting
// parallel performance for critical tasks (the paper's DAM-P).
func DAMP() Policy { return core.DAMP() }

// Policies returns all seven built-in policies in Table 1 order.
func Policies() []Policy { return core.All() }

// PolicyByName resolves a policy from its paper name ("DAM-C", "RWS", …).
func PolicyByName(name string) (Policy, error) { return core.ByName(name) }

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return dag.New() }

// Result wraps the metrics of one run.
type Result struct {
	*Collector
}

// RunConfig configures real execution.
type RunConfig struct {
	// Platform defines the workers; required.
	Platform *Platform
	// Policy is the scheduling policy; required.
	Policy Policy
	// Alpha is the PTT new-observation weight (0 = the paper's 1/5).
	Alpha float64
	// Seed drives stealing randomness.
	Seed uint64
	// Pin requests best-effort thread pinning (Linux).
	Pin bool
}

// Run executes the graph with real goroutine workers and returns metrics.
func Run(g *Graph, cfg RunConfig) (*Result, error) {
	rt, err := xtr.New(xtr.Config{
		Topo:   cfg.Platform,
		Policy: cfg.Policy,
		Alpha:  cfg.Alpha,
		Seed:   cfg.Seed,
		Pin:    cfg.Pin,
	})
	if err != nil {
		return nil, err
	}
	coll, err := rt.Run(g)
	if err != nil {
		return nil, err
	}
	return &Result{coll}, nil
}

// Scenario injects dynamic asymmetry into a simulation.
type Scenario func(m *machine.Model)

// WithCoRunner time-shares the given cores with a compute-bound co-running
// application, leaving `share` of each core's cycles to the runtime.
func WithCoRunner(cores []int, share float64) Scenario {
	return func(m *machine.Model) { interfere.CoRunCPU(m, cores, share) }
}

// WithCoRunnerEpisode is WithCoRunner limited to [from, to) seconds.
func WithCoRunnerEpisode(cores []int, share, from, to float64) Scenario {
	return func(m *machine.Model) { interfere.CoRunCPUEpisode(m, cores, share, from, to) }
}

// WithMemoryCoRunner models a streaming co-runner on one core: the core is
// time-shared and its cluster loses a fraction of memory bandwidth.
func WithMemoryCoRunner(core int, share, bwFactor float64) Scenario {
	return func(m *machine.Model) { interfere.CoRunMemory(m, core, share, bwFactor) }
}

// WithDVFS makes a cluster's clock alternate between hiHz (hiDur seconds)
// and loHz (loDur seconds), repeating forever.
func WithDVFS(cluster int, hiHz, loHz, hiDur, loDur float64) Scenario {
	return func(m *machine.Model) { interfere.DVFS(m, cluster, hiHz, loHz, hiDur, loDur) }
}

// WithPaperDVFS applies the paper's DVFS wave (2035/345 MHz, 5 s + 5 s) to
// a cluster.
func WithPaperDVFS(cluster int) Scenario {
	return func(m *machine.Model) { interfere.PaperDVFS(m, cluster) }
}

// SimConfig configures simulated execution.
type SimConfig struct {
	// Platform defines the simulated cores; required.
	Platform *Platform
	// Policy is the scheduling policy; required.
	Policy Policy
	// Alpha is the PTT new-observation weight (0 = the paper's 1/5).
	Alpha float64
	// Seed makes the whole simulation deterministic.
	Seed uint64
	// RunBodies executes task bodies functionally (zero virtual cost).
	RunBodies bool
}

// Simulate executes the graph on the deterministic simulated platform,
// applying the scenarios, and returns metrics. Task durations come from
// each task's Cost and the platform's machine model.
func Simulate(g *Graph, cfg SimConfig, scenarios ...Scenario) (*Result, error) {
	model := machine.New(cfg.Platform)
	for _, s := range scenarios {
		s(model)
	}
	rt, err := simrt.New(simrt.Config{
		Topo:      cfg.Platform,
		Model:     model,
		Policy:    cfg.Policy,
		Alpha:     cfg.Alpha,
		Seed:      cfg.Seed,
		RunBodies: cfg.RunBodies,
	})
	if err != nil {
		return nil, err
	}
	coll, err := rt.Run(g)
	if err != nil {
		return nil, err
	}
	return &Result{coll}, nil
}
