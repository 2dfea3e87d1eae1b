package scenario

import (
	"fmt"
	"io"
	"sort"

	"dynasym/internal/core"
	"dynasym/internal/workloads"
)

// The paper's evaluation (Section 5) and the ablations beyond it, one
// family per figure panel. Throughput grids print through
// Result.WriteTable; the figures that read something else out of a run
// (place shares, per-core times, per-iteration tables) add a View. The
// expected shapes — who wins, by roughly what factor — are asserted in
// paper_test.go and recorded against the paper in EXPERIMENTS.md.

// Figure 9's run length and interference window, in iterations.
const (
	fig9Iters        = 100
	fig9From, fig9To = 20, 70
)

// coRunSpec is Figure 4's scenario: the kernel's layered DAG on the TX2
// with a serial co-runner time-sharing Denver core 0 for the whole run —
// compute-bound for MatMul and Stencil, streaming (taking 20% of the
// cluster's memory bandwidth) for Copy — swept over DAG parallelism.
func coRunSpec(name string, kernel workloads.KernelKind, scale float64, seed uint64, ps ...int) Spec {
	wcfg := workloads.SyntheticConfig{Kernel: kernel}.Defaults()
	wcfg.Tasks = scaled(wcfg.Tasks, scale, 600)
	disturb := Disturbance{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5}
	if kernel == workloads.Copy {
		disturb = Disturbance{Kind: CoRunMemory, Cores: []int{0}, Share: 0.5, BWFactor: 0.8}
	}
	return Spec{
		Name:     name,
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: wcfg},
		Disturb:  []Disturbance{disturb},
		Policies: core.All(),
		Points:   ParallelismPoints(ps...),
		Seed:     seed,
	}
}

// dvfsSpec is Figure 7's scenario: the kernel's layered DAG on the TX2
// while the Denver cluster's clock alternates 2035/345 MHz every 5 s.
func dvfsSpec(name string, kernel workloads.KernelKind, scale float64, seed uint64) Spec {
	wcfg := workloads.SyntheticConfig{Kernel: kernel}.Defaults()
	wcfg.Tasks = scaled(wcfg.Tasks, scale, 600)
	return Spec{
		Name:     name,
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: wcfg},
		Disturb:  []Disturbance{PaperDVFS(0)},
		Policies: core.All(),
		Points:   ParallelismPoints(2, 3, 4, 5, 6),
		Seed:     seed,
	}
}

// fig8Spec is the sensitivity analysis: MatMul at parallelism 2 (spine
// bound, where noisy measurements flip critical placements) under the
// core-0 co-runner, DAM-C only, one point per (tile, PTT weight).
func fig8Spec(scale float64, seed uint64) Spec {
	var pts []Point
	for _, tile := range []int{32, 64, 80, 96} {
		for _, alpha := range []float64{1.0 / 5, 2.0 / 5, 3.0 / 5, 4.0 / 5, 1.0} {
			pts = append(pts, Point{Label: fmt.Sprintf("t%d/w%g", tile, alpha), Tile: tile, Alpha: alpha})
		}
	}
	return Spec{
		Name:     "fig8",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel:      workloads.MatMul,
			Tasks:       scaled(32000, scale, 600),
			Parallelism: 2,
		}},
		Disturb:  []Disturbance{{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5}},
		Policies: []core.Policy{core.DAMC()},
		Points:   pts,
		Seed:     seed,
	}
}

// fig9Spec is the K-means scenario on the 16-core dual-socket Haswell: a
// co-runner takes half of every socket-0 core while iterations
// [fig9From, fig9To) would run at uninterfered pace. The window is placed
// in virtual time by a DAM-C calibration run without interference.
func fig9Spec(name string, scale float64, seed uint64) Spec {
	km := workloads.KMeansConfig{MaxIters: fig9Iters}.Defaults()
	km.N = scaled(km.N, scale, 1<<13)
	s := Spec{
		Name:     name + "-calibration",
		Platform: PlatformSpec{Preset: "haswell16"},
		Workload: WorkloadSpec{Kind: KMeans, KMeans: km},
		Policies: []core.Policy{core.DAMC()},
		Seed:     seed,
	}
	iters := MustRun(s).Cells[0][0].Run().Iters
	total := 0.0
	for _, st := range iters {
		total += st.End - st.Start
	}
	avg := total / float64(len(iters))
	s.Name = name
	s.Policies = []core.Policy{core.RWS(), core.DAMC(), core.DAMP()}
	s.Disturb = []Disturbance{{
		Kind: CoRunCPU, Cluster: 0, Share: 0.5,
		From: float64(fig9From) * avg, To: float64(fig9To) * avg,
	}}
	return s
}

// fig10Spec is the distributed 2D Heat scenario: four dual-socket 10-core
// nodes on a shared clock and interconnect, with a compute-bound
// interferer on five cores of node 0's socket 0. The interferer starts
// eight iterations in ("a reasonable window for training"), placed by a
// 10-iteration DAM-C calibration run.
func fig10Spec(scale float64, seed uint64) Spec {
	hd := workloads.HeatDistConfig{}.Defaults()
	hd.Iters = scaled(hd.Iters, scale, 10)
	spec := func(name string, hd workloads.HeatDistConfig, pols []core.Policy, from float64) Spec {
		d := Disturbance{Kind: CoRunCPU, Node: 0, Cores: []int{0, 1, 2, 3, 4}, Share: 0.35}
		if from > 0 {
			d.From, d.To = from, 1e18
		}
		return Spec{
			Name:     name,
			Platform: PlatformSpec{Preset: "haswell-node"},
			Workload: WorkloadSpec{Kind: HeatDist, Heat: hd},
			Disturb:  []Disturbance{d},
			Policies: pols,
			Seed:     seed,
		}
	}
	calib := hd
	calib.Iters = 10
	iterTime := MustRun(spec("fig10-calibration", calib, []core.Policy{core.DAMC()}, 0)).Cells[0][0].Run().Makespan / float64(calib.Iters)
	return spec("fig10", hd, []core.Policy{core.RWS(), core.RWSMC(), core.DA(), core.DAMC(), core.DAMP()}, 8*iterTime)
}

func init() {
	for _, k := range []struct {
		panel  string
		kernel workloads.KernelKind
	}{{"a", workloads.MatMul}, {"b", workloads.Copy}, {"c", workloads.Stencil}} {
		interference := "a compute-bound"
		if k.kernel == workloads.Copy {
			interference = "a streaming"
		}
		Register(Family{
			Name: "fig4" + k.panel,
			Desc: fmt.Sprintf("Figure 4%s: %s throughput over DAG parallelism 2-6 on TX2 with %s co-runner on Denver core 0", k.panel, k.kernel, interference),
			Spec: func(scale float64, seed uint64) Spec {
				return coRunSpec("fig4"+k.panel, k.kernel, scale, seed, 2, 3, 4, 5, 6)
			},
		})
		Register(Family{
			Name: "fig7" + k.panel,
			Desc: fmt.Sprintf("Figure 7%s: %s throughput over DAG parallelism 2-6 on TX2 under the 2035/345 MHz DVFS wave on the Denver cluster", k.panel, k.kernel),
			Spec: func(scale float64, seed uint64) Spec {
				return dvfsSpec("fig7"+k.panel, k.kernel, scale, seed)
			},
		})
	}
	Register(Family{
		Name: "fig5",
		Desc: "Figure 5: where each scheduler places critical tasks (Figure 4a at P=2), as place shares",
		Spec: func(scale float64, seed uint64) Spec {
			return coRunSpec("fig5", workloads.MatMul, scale, seed, 2)
		},
		View: viewFig5,
	})
	Register(Family{
		Name: "fig6",
		Desc: "Figure 6: per-core work time and total execution time per scheduler (Figure 4a at P=2)",
		Spec: func(scale float64, seed uint64) Spec {
			return coRunSpec("fig6", workloads.MatMul, scale, seed, 2)
		},
		View: viewFig6,
	})
	Register(Family{
		Name: "fig8",
		Desc: "Figure 8: DAM-C MatMul throughput per PTT weight (0.2-1.0) and tile size (32-96) under the core-0 co-runner",
		Spec: fig8Spec,
	})
	for _, v := range []struct {
		panel, desc string
		view        func(io.Writer, Spec, *Result)
	}{
		{"a", "per-iteration time of RWS, DAM-C and DAM-P", viewFig9Iters},
		{"b", "RWS task count per execution place per iteration", viewFig9Places("RWS")},
		{"c", "DAM-P task count per execution place per iteration", viewFig9Places("DAM-P")},
	} {
		name := "fig9" + v.panel
		Register(Family{
			Name: name,
			Desc: fmt.Sprintf("Figure 9%s: K-means on 16-core Haswell with a socket-0 co-runner over iterations 20-70; %s", v.panel, v.desc),
			Spec: func(scale float64, seed uint64) Spec { return fig9Spec(name, scale, seed) },
			View: v.view,
		})
	}
	Register(Family{
		Name: "fig10",
		Desc: "Figure 10: distributed 2D Heat on 4 Haswell nodes with an interferer on 5 cores of node 0 after a training window",
		Spec: fig10Spec,
	})

	Register(Family{
		Name: "ablation-alpha",
		Desc: "Ablation: DAM-C MatMul at P=4 under the Figure 7 DVFS wave, one point per PTT new-sample weight",
		Spec: func(scale float64, seed uint64) Spec {
			s := dvfsSpec("ablation-alpha", workloads.MatMul, scale, seed)
			s.Policies = []core.Policy{core.DAMC()}
			s.Points = nil
			for _, alpha := range []float64{1.0 / 5, 2.0 / 5, 3.0 / 5, 4.0 / 5, 1.0} {
				s.Points = append(s.Points, Point{Label: fmt.Sprintf("w%g", alpha), Parallelism: 4, Alpha: alpha})
			}
			return s
		},
	})
	for _, v := range []struct {
		name, desc string
		pols       func() []core.Policy
	}{
		{"ablation-steal", "stealing of high-priority tasks re-enabled (DAM-C, DAM-P vs their +steal variants)", func() []core.Policy {
			return []core.Policy{core.DAMC(), core.WithPrioritySteal(core.DAMC()), core.DAMP(), core.WithPrioritySteal(core.DAMP())}
		}},
		{"ablation-wake", "wake-time routing disabled, dispatch-only placement (DAM-C, DA vs their -wake variants)", func() []core.Policy {
			return []core.Policy{core.DAMC(), core.WithoutWake(core.DAMC()), core.DA(), core.WithoutWake(core.DA())}
		}},
		{"ablation-dheft", "the dHEFT earliest-finish-time baseline against RWS, DA and DAM-C", func() []core.Policy {
			return []core.Policy{core.RWS(), core.DHEFT(), core.DA(), core.DAMC()}
		}},
		{"ablation-sampled", "sampled O(K) global search (DAM-C~4, DAM-C~16) against the full DAM-C search", func() []core.Policy {
			return []core.Policy{core.DAMC(), core.NewSampled(core.DAMC(), 4), core.NewSampled(core.DAMC(), 16)}
		}},
	} {
		Register(Family{
			Name: v.name,
			Desc: "Ablation on the Figure 4a scenario at P=2,4,6: " + v.desc,
			Spec: func(scale float64, seed uint64) Spec {
				s := coRunSpec(v.name, workloads.MatMul, scale, seed, 2, 4, 6)
				s.Policies = v.pols()
				return s
			},
		})
	}
	for _, v := range []struct{ suffix, crit, desc string }{
		{"user", CritUser, "user-annotated"},
		{"inferred", CritInferred, "CATS-style inferred"},
		{"none", CritNone, "absent"},
	} {
		name := "ablation-infer-" + v.suffix
		Register(Family{
			Name: name,
			Desc: "Ablation: DAM-C on the Figure 4a scenario at P=2,4 with " + v.desc + " criticality",
			Spec: func(scale float64, seed uint64) Spec {
				s := coRunSpec(name, workloads.MatMul, scale, seed, 2, 4)
				s.Policies = []core.Policy{core.DAMC()}
				s.Workload.Criticality = v.crit
				return s
			},
		})
	}
	for _, widthCap := range []int{1, 0} {
		name := fmt.Sprintf("ablation-width-cap%d", widthCap)
		desc := "the full TX2"
		if widthCap == 1 {
			desc = "a width-1 TX2 (moldability disabled)"
		}
		Register(Family{
			Name: name,
			Desc: "Ablation: DA and DAM-P Stencil at P=2,3 under DVFS on " + desc,
			Spec: func(scale float64, seed uint64) Spec {
				wcfg := workloads.SyntheticConfig{Kernel: workloads.Stencil}.Defaults()
				wcfg.Tasks = scaled(wcfg.Tasks, scale, 600)
				return Spec{
					Name:     name,
					Platform: PlatformSpec{Preset: "tx2", WidthCap: widthCap},
					Workload: WorkloadSpec{Kind: Synthetic, Synthetic: wcfg},
					Disturb:  []Disturbance{PaperDVFS(0)},
					Policies: []core.Policy{core.DA(), core.DAMP()},
					Points:   ParallelismPoints(2, 3),
					// seed+7, not seed: the width ablation's pinned
					// numbers were taken at this offset.
					Seed: seed + 7,
				}
			},
		})
	}
}

// viewFig5 prints each policy's high-priority place distribution (the
// paper's pie charts as percentage lists), from the spec's first point.
func viewFig5(w io.Writer, _ Spec, res *Result) {
	fmt.Fprintln(w, "# Figure 5: distribution of priority tasks over execution places (MatMul, P=2)")
	for pi, p := range res.Policies {
		fmt.Fprintf(w, "%-8s", p)
		for k, ps := range res.Cells[pi][0].Run().HighHist {
			if ps.Frac < 0.001 || k > 7 {
				break
			}
			fmt.Fprintf(w, "  %s=%0.1f%%", ps.Place, ps.Frac*100)
		}
		fmt.Fprintln(w)
	}
}

// viewFig6 prints per-core kernel work time and total execution time per
// policy (the paper's Figure 6 bars), from the spec's first point.
func viewFig6(w io.Writer, _ Spec, res *Result) {
	fmt.Fprintln(w, "# Figure 6: per-core work time [s] and total execution time (MatMul, P=2, co-run on core 0)")
	fmt.Fprintf(w, "%-8s", "policy")
	for c := 0; c < res.Topo.NumCores(); c++ {
		fmt.Fprintf(w, "   core%-2d", c)
	}
	fmt.Fprintf(w, "%9s\n", "total")
	for pi, p := range res.Policies {
		run := res.Cells[pi][0].Run()
		fmt.Fprintf(w, "%-8s", p)
		for _, v := range run.CoreBusy {
			fmt.Fprintf(w, "%9.2f", v)
		}
		fmt.Fprintf(w, "%9.2f\n", run.Makespan)
	}
}

// viewFig9Iters prints Figure 9a: per-iteration wall time per policy,
// marking iterations of the first policy that overlap the interference
// window.
func viewFig9Iters(w io.Writer, s Spec, res *Result) {
	from, to := s.Disturb[0].From, s.Disturb[0].To
	fmt.Fprintf(w, "# Figure 9a: K-means per-iteration time [ms]; interference window targets iterations [%d, %d)\n", fig9From, fig9To)
	fmt.Fprintf(w, "%-6s", "iter")
	n := 0
	for pi, p := range res.Policies {
		fmt.Fprintf(w, "%10s", p)
		n = max(n, len(res.Cells[pi][0].Run().Iters))
	}
	fmt.Fprintln(w, "  (* = interfered, first policy's timeline)")
	for k := 0; k < n; k++ {
		fmt.Fprintf(w, "%-6d", k)
		interfered := false
		for pi := range res.Policies {
			iters := res.Cells[pi][0].Run().Iters
			if k >= len(iters) {
				fmt.Fprintf(w, "%10s", "-")
				continue
			}
			fmt.Fprintf(w, "%10.2f", (iters[k].End-iters[k].Start)*1e3)
			if pi == 0 {
				interfered = iters[k].End > from && iters[k].Start < to
			}
		}
		if interfered {
			fmt.Fprint(w, "  *")
		}
		fmt.Fprintln(w)
	}
}

// viewFig9Places returns the Figure 9b/c view: the policy's task count per
// execution place per iteration.
func viewFig9Places(policy string) func(io.Writer, Spec, *Result) {
	return func(w io.Writer, _ Spec, res *Result) {
		cell := res.Cell(policy, res.Points[0].Label)
		if cell == nil {
			fmt.Fprintf(w, "# Figure 9 (%s): policy not in this run\n", policy)
			return
		}
		iters := cell.Run().Iters
		seen := map[int]bool{}
		for _, st := range iters {
			for id, n := range st.Places {
				if n != 0 {
					seen[id] = true
				}
			}
		}
		ids := make([]int, 0, len(seen))
		for id := range seen {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		places := res.Topo.Places()
		fmt.Fprintf(w, "# Figure 9 (%s): task count per execution place per iteration\n", policy)
		fmt.Fprintf(w, "%-6s", "iter")
		for _, id := range ids {
			fmt.Fprintf(w, "%9s", places[id].String())
		}
		fmt.Fprintln(w)
		for k, st := range iters {
			fmt.Fprintf(w, "%-6d", k)
			for _, id := range ids {
				fmt.Fprintf(w, "%9d", st.Places[id])
			}
			fmt.Fprintln(w)
		}
	}
}
