package main

import (
	"fmt"
	"time"

	"dynasym"
	"dynasym/internal/xtr"
)

// The xtr-real graph: empty-body layered synthetic DAGs. Its size sits
// where the real runtime's time per task is flat; beyond a few tens of
// thousands of tasks it grows superlinearly, and run-to-run spread with it.
const (
	xtrTasks       = 8000
	xtrParallelism = 8
	xtrWorkers     = 2
)

// xtrPolicies are the policies xtr-real rotates through, one per op.
var xtrPolicies = []string{"RWS", "DAM-C", "DAM-P"}

// xtrOp is one finished real-runtime op.
type xtrOp struct {
	policy string
	root   int // the op's span id when traced
	ms     float64
	tasks  int64
	// Per-run counters, read from the runtime when traced.
	steals, dispatches int64
	busyFrac           float64
}

// xtrRound sums the ops of one round: consecutive ops, one under each of
// xtrPolicies in turn. xtr-real's cells_per_s and tasks_per_s are the
// median over its whole rounds of their cells and tasks per second of run
// time.
type xtrRound struct {
	ops   int
	tasks int64
	ms    float64
}

func (r *xtrRound) add(op xtrOp) {
	r.ops++
	r.tasks += op.tasks
	r.ms += op.ms
}

// runXtrOp runs op i: one real execution of a fresh graph under policy
// i mod 3, and checks it finished every task. Untraced it calls
// dynasym.Run; traced it builds the runtime with xtr.New (what
// dynasym.Run does) so the run's worker counters can be read.
func runXtrOp(rec *recorder, seed uint64, i int) (xtrOp, error) {
	name := xtrPolicies[i%len(xtrPolicies)]
	op := xtrOp{policy: name}
	pol, err := dynasym.PolicyByName(name)
	if err != nil {
		return op, err
	}
	g := dynasym.BuildSyntheticDAG(dynasym.SyntheticConfig{
		Kernel: dynasym.MatMul, Tasks: xtrTasks, Parallelism: xtrParallelism,
	})
	total := g.Outstanding()
	platform := dynasym.SymmetricPlatform(xtrWorkers)
	s := opSeed(seed, i)

	var coll *dynasym.Collector
	if rec == nil {
		t0 := time.Now()
		res, err := dynasym.Run(g, dynasym.RunConfig{Platform: platform, Policy: pol, Seed: s})
		op.ms = ms(time.Since(t0))
		if err != nil {
			return op, err
		}
		coll = res.Collector
	} else {
		op.root = rec.begin("op", 0, i)
		sp := rec.begin("xtr.run", op.root, i)
		rt, err := xtr.New(xtr.Config{Topo: platform, Policy: pol, Seed: s})
		if err == nil {
			coll, err = rt.Run(g)
		}
		rec.end(sp)
		rec.end(op.root)
		r := rec.get(op.root)
		op.ms = ms(r.end - r.start)
		if err != nil {
			return op, err
		}
		for _, ws := range rt.WorkerStats() {
			op.steals += ws.Steals
			op.dispatches += ws.Dispatches
		}
	}
	op.tasks = coll.TasksDone()
	if op.tasks != total || g.Outstanding() != 0 || !(coll.Makespan() > 0) {
		return op, fmt.Errorf("xtr %s run: %d of %d tasks done, %d outstanding, makespan %v",
			name, op.tasks, total, g.Outstanding(), coll.Makespan())
	}
	busy := 0.0
	for _, b := range coll.CoreBusy() {
		busy += b
	}
	op.busyFrac = busy / (coll.Makespan() * xtrWorkers)
	return op, nil
}
