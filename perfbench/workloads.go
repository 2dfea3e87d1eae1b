package main

import (
	"fmt"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// workload is one named input set the benchmark drives.
type workload struct {
	name string
	// why is the one line saying why the workload was chosen.
	why string
	// xtr marks the workload that runs the real runtime instead of the
	// simulated service path.
	xtr bool
	// prime returns the grid submitted once during set-up, untimed.
	prime func(seed uint64) scenario.Spec
	// grid returns the grid op i submits.
	grid func(seed uint64, i int) scenario.Spec
}

var allWorkloads = []workload{
	{
		name: "cold-sweep",
		why:  "fresh-seed burst-sweep grids miss both caches, so simulation, the shard wire and the fingerprint of large per-layer results dominate",
		prime: func(seed uint64) scenario.Spec {
			return burstSweep("cold-sweep-prime", opSeed(seed, -1))
		},
		grid: func(seed uint64, i int) scenario.Spec {
			return burstSweep(fmt.Sprintf("cold-sweep-%d", i), opSeed(seed, i))
		},
	},
	{
		name: "warm-overlap",
		why:  "a primed grid resubmitted with one new point serves 3/4 of its cells from the cell cache, so validate, hash, plan, merge, fingerprint and encoding dominate",
		prime: func(seed uint64) scenario.Spec {
			return burstSweep("warm-overlap-prime", opSeed(seed, -1))
		},
		grid: func(seed uint64, i int) scenario.Spec {
			s := burstSweep(fmt.Sprintf("warm-overlap-%d", i), opSeed(seed, -1))
			// A never-seen PTT weight makes the point's seven cells new
			// while they cost what the P4 cells cost.
			u := float64(opSeed(seed, i)%(1<<20)) / (1 << 20)
			s.Points = append(s.Points, scenario.Point{
				Label: fmt.Sprintf("A%d", i), Parallelism: 4, Alpha: 0.1 + 0.8*u,
			})
			return s
		},
	},
	{
		name: "many-small-cells",
		why:  "hundreds of small tiled-Cholesky cells per op make per-cell fixed costs dominate, on the only path through dagio and compiled dag graphs",
		prime: func(seed uint64) scenario.Spec {
			return choleskyCells("many-small-cells-prime", opSeed(seed, -1))
		},
		grid: func(seed uint64, i int) scenario.Spec {
			return choleskyCells(fmt.Sprintf("many-small-cells-%d", i), opSeed(seed, i))
		},
	},
	{
		name: "xtr-real",
		why:  "empty-body synthetic DAGs on the real goroutine runtime measure dispatch, queue locking, steals and PTT updates, bypassing simulator and service",
		xtr:  true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSeed derives the seed of op i (op -1 is the set-up priming op) from
// the workload seed with splitmix64, so every op's cells hash fresh.
// Seeds stay below 2^40 because cells add repetition strides to them.
func opSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+2)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) % (1 << 40)
}

// burstSweep is the burst-sweep family's grid at scale 0.1: the seven
// Table-1 policies × P∈{2,4,6}, synthetic MatMul on TX2 under
// phase-shifted bursty co-runners. The benchmark spells the grid out
// instead of looking the family up, so a change to the family cannot
// change the benchmark's inputs.
func burstSweep(name string, seed uint64) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Platform: scenario.PlatformSpec{Preset: "tx2"},
		Workload: scenario.WorkloadSpec{Kind: scenario.Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul,
			Tasks:  3200,
		}},
		Disturb: []scenario.Disturbance{
			{Kind: scenario.Burst, Cluster: 1, Share: 0.4, BusyDur: 0.15, IdleDur: 0.3, PhaseStep: 0.1},
			{Kind: scenario.Burst, Cores: []int{1}, Share: 0.5, BusyDur: 0.2, IdleDur: 0.4},
		},
		Policies: core.All(),
		Points:   scenario.ParallelismPoints(2, 4, 6),
		Seed:     seed,
	}
}

// choleskyReps repeats each many-small-cells cell, so one op carries
// 7 policies × 3 tile grids × choleskyReps cells.
const choleskyReps = 10

// choleskyCells is the cholesky-sweep grid at full tile size (T8, T12,
// T16) under a bursty A57 co-runner.
func choleskyCells(name string, seed uint64) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Platform: scenario.PlatformSpec{Preset: "tx2"},
		Workload: scenario.WorkloadSpec{Kind: scenario.DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky}},
		Disturb: []scenario.Disturbance{
			{Kind: scenario.Burst, Cluster: 1, Share: 0.4, BusyDur: 0.3, IdleDur: 0.6, PhaseStep: 0.2},
		},
		Policies: core.All(),
		Points: []scenario.Point{
			{Label: "T8", Tile: 8},
			{Label: "T12", Tile: 12},
			{Label: "T16", Tile: 16},
		},
		Reps: choleskyReps,
		Seed: seed,
	}
}
