package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/workloads"
)

// probeCase is one probed workload kind plus the disturbances it runs
// under beside the spec's shared node-0 burst.
type probeCase struct {
	w       WorkloadSpec
	disturb []Disturbance
}

// probeWorkloads enumerates one probed spec per workload kind.
func probeWorkloads() map[string]probeCase {
	return map[string]probeCase{
		"synthetic": {w: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tasks: 300,
		}}},
		"kmeans": {w: WorkloadSpec{Kind: KMeans, KMeans: workloads.KMeansConfig{
			N: 400, K: 3, Grains: 8, MaxIters: 3,
		}}},
		"daggen": {w: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{
			Model: dagio.ModelCholesky, Tiles: 5,
		}}},
		"dagfile": {w: WorkloadSpec{Kind: DAGFile, DAG: dagio.Demo()}},
		"heatdist": {
			w: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{
				Nodes: 2, Iters: 6, BlocksPerNode: 12,
			}},
			disturb: []Disturbance{{Kind: CoRunCPU, Node: 1, Cores: []int{0, 1}, Share: 0.5}},
		},
	}
}

// The probe must be invisible in the results: a probed run's fingerprint
// must be byte-identical to the unprobed run's, for every Table-1 policy
// and every probed workload kind. This is the tentpole's acceptance gate —
// telemetry describes the schedule, it must never change it.
func TestProbeFingerprintNeutral(t *testing.T) {
	for wname, pc := range probeWorkloads() {
		pc := pc
		t.Run(wname, func(t *testing.T) {
			t.Parallel()
			s := Spec{
				Name:     "probe-neutral-" + wname,
				Platform: PlatformSpec{Preset: "tx2"},
				Workload: pc.w,
				Disturb: append([]Disturbance{
					{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 0.1, IdleDur: 0.2, PhaseStep: 0.05},
				}, pc.disturb...),
				Policies: core.All(),
				Reps:     2,
				Seed:     42,
			}
			off, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			s.Probe = true
			on, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if fo, fn := off.Fingerprint(), on.Fingerprint(); fo != fn {
				t.Fatalf("probe changed the schedule:\n--- probe off\n%s\n--- probe on\n%s", fo, fn)
			}
			// The probed run must actually carry telemetry for every cell.
			for pi := range on.Cells {
				for xi := range on.Cells[pi] {
					for rep, run := range on.Cells[pi][xi].Runs {
						if run.Sched == nil {
							t.Fatalf("probed run %s/%s rep %d has no Sched telemetry",
								on.Policies[pi], on.Points[xi].Label, rep)
						}
					}
					if off.Cells[pi][xi].Runs[0].Sched != nil {
						t.Fatal("unprobed run carries Sched telemetry")
					}
				}
			}
		})
	}
}

// probeSpec is a small multi-cell grid whose cells the trace tests replay.
func probeSpec() Spec {
	return Spec{
		Name:     "probe-trace",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tasks: 200,
		}},
		Policies: []core.Policy{core.DAMC(), core.RWS()},
		Points:   ParallelismPoints(2, 4),
		Reps:     2,
		Seed:     7,
	}
}

// RunCellTrace reproduces any cell's schedule on demand — including cells
// whose canonical result came from elsewhere — and its metrics must match
// the cell's canonical metrics bit for bit.
func TestRunCellTraceMatchesCanonicalRun(t *testing.T) {
	plan, err := NewPlan(probeSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []CellJob{plan.Cells[0], plan.Cells[len(plan.Cells)-1]} {
		canonical, err := plan.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		rm, rec, err := plan.RunCellTrace(c)
		if err != nil {
			t.Fatal(err)
		}
		if rm.Makespan != canonical.Makespan || rm.TasksDone != canonical.TasksDone ||
			rm.Steals != canonical.Steals || rm.Dispatches != canonical.Dispatches {
			t.Fatalf("traced cell diverged from canonical run: traced=%+v canonical=%+v", rm, canonical)
		}
		if rm.Sched == nil {
			t.Fatal("traced cell carries no Sched telemetry")
		}
		if rec.Len() == 0 || len(rec.Counters()) == 0 {
			t.Fatalf("traced cell recorded %d events, %d counter points", rec.Len(), len(rec.Counters()))
		}
	}
}

// heatProbeSpec is a 2-node distributed Heat cell with a co-runner on
// node 1, so the two nodes finish at different times.
func heatProbeSpec() Spec {
	return Spec{
		Name:     "heat-probe",
		Platform: PlatformSpec{Preset: "haswell-node"},
		Workload: WorkloadSpec{Kind: HeatDist, Heat: workloads.HeatDistConfig{Nodes: 2, Iters: 8, BlocksPerNode: 20}},
		Disturb:  []Disturbance{{Kind: CoRunCPU, Node: 1, Cores: []int{0, 1}, Share: 0.5}},
		Policies: []core.Policy{core.DAMC()},
		Seed:     42,
		Probe:    true,
	}
}

// A distributed cell's Sched places its nodes side by side like CoreBusy
// does, and every core's breakdown — the early-finishing node's included —
// covers the cell's makespan.
func TestDistributedProbeCoversCellMakespan(t *testing.T) {
	res, err := Run(heatProbeSpec())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Cells[0][0].Run()
	s := r.Sched
	if s == nil {
		t.Fatal("probed distributed cell carries no Sched telemetry")
	}
	if want := 2 * res.Topo.NumCores(); len(r.CoreBusy) != want || len(s.Busy) != want {
		t.Fatalf("CoreBusy has %d cores, Sched.Busy %d, want %d", len(r.CoreBusy), len(s.Busy), want)
	}
	for i := range r.CoreBusy {
		if s.Busy[i] != r.CoreBusy[i] {
			t.Fatalf("core %d: Sched.Busy %v != CoreBusy %v", i, s.Busy[i], r.CoreBusy[i])
		}
	}
	if s.Span != r.Makespan {
		t.Fatalf("Sched span %v, cell makespan %v", s.Span, r.Makespan)
	}
	for i := range s.Busy {
		sum := s.Busy[i] + s.Dispatch[i] + s.Steal[i] + s.Idle[i]
		if math.Abs(sum-r.Makespan) > 1e-9*math.Max(1, r.Makespan) {
			t.Fatalf("core %d breakdown sums to %v, makespan is %v", i, sum, r.Makespan)
		}
	}
	var steals int64
	for _, e := range s.StealMatrix {
		if e.Victim/res.Topo.NumCores() != e.Thief/res.Topo.NumCores() {
			t.Fatalf("steal edge %+v crosses nodes", e)
		}
		steals += e.Low + e.High
	}
	if steals != r.Steals {
		t.Fatalf("steal matrix holds %d steals, counters %d", steals, r.Steals)
	}
}

// RunCellTrace explains distributed cells too: both nodes' slices land in
// one trace on disjoint core lanes, with counter lanes per node, and the
// traced metrics match the canonical run.
func TestRunCellTraceDistributed(t *testing.T) {
	spec := heatProbeSpec()
	spec.Probe = false
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := plan.Cells[0]
	canonical, err := plan.RunCell(c)
	if err != nil {
		t.Fatal(err)
	}
	rm, rec, err := plan.RunCellTrace(c)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Makespan != canonical.Makespan || rm.TasksDone != canonical.TasksDone || rm.Steals != canonical.Steals {
		t.Fatalf("traced cell diverged from canonical run: traced=%+v canonical=%+v", rm, canonical)
	}
	cores := len(rm.CoreBusy) / 2
	seen := [2]bool{}
	for _, ev := range rec.Events() {
		node := ev.Core / cores
		if node < 0 || node > 1 || ev.Leader/cores != node {
			t.Fatalf("event %+v outside the 2×%d-core layout", ev, cores)
		}
		if !strings.HasPrefix(ev.Label, fmt.Sprintf("n%d.", node)) {
			t.Fatalf("node-%d lane holds %q", node, ev.Label)
		}
		seen[node] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("trace covers nodes %v, want both", seen)
	}
	var b strings.Builder
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"queue depth (node 0)", "queue depth (node 1)", "core util"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("distributed trace is missing %q", want)
		}
	}
}
