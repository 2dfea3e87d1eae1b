// Command dagsim runs a single DAG scenario on the simulated platform
// and prints throughput, per-core work time and the priority-task
// placement histogram. It is the quickest way to poke at one scheduling
// configuration: the flags assemble a scenario.Spec and hand it to the
// declarative engine.
//
// Three workload sources, in precedence order:
//
//   - -dagfile FILE imports an external task graph (GraphViz DOT or the
//     dagio JSON schema; format inferred from the extension or forced
//     with -format);
//   - -gen MODEL expands a parametric generator (cholesky, lu,
//     fork-join, random-layered; shaped by -tiles/-tile/-layers/-width/
//     -degree);
//   - otherwise the paper's synthetic layered DAG (-kernel, -tasks,
//     -parallelism).
//
// Examples:
//
//	dagsim -policy DAM-C -kernel matmul -parallelism 2 -interfere corun
//	dagsim -dagfile examples/dag/demo.dot -policy DAM-C -interfere dvfs
//	dagsim -gen cholesky -tiles 12 -policy DAM-P -interfere none
//	dagsim -gen random-layered -width 16 -policy DAM-C~8 -platform scaleout-8x8
//	dagsim -list
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
	"dynasym/internal/scenario"
	"dynasym/internal/trace"
	"dynasym/internal/workloads"
)

func main() {
	var (
		policyName  = flag.String("policy", "DAM-C", "scheduling policy (RWS, RWSM-C, FA, FAM-C, DA, DAM-C, DAM-P, dHEFT)")
		kernelName  = flag.String("kernel", "matmul", "synthetic kernel: matmul, copy, stencil")
		platform    = flag.String("platform", "tx2", "platform preset: tx2, haswell16, haswell-node, sym<N>, scaleout-<C>x<N>")
		parallelism = flag.Int("parallelism", 4, "synthetic DAG parallelism (tasks per layer)")
		tasks       = flag.Int("tasks", 10000, "synthetic total tasks")
		tile        = flag.Int("tile", 0, "tile size in elements (0 = default; scales per-task cost)")
		dagfile     = flag.String("dagfile", "", "import a task graph from this file and run it (DOT or JSON)")
		format      = flag.String("format", "", "dagfile format: dot or json (default: by extension)")
		gen         = flag.String("gen", "", "generate a classic task graph: "+strings.Join(dagio.Models(), ", "))
		tiles       = flag.Int("tiles", 0, "generator tile-grid edge for cholesky/lu (0 = default 8)")
		layers      = flag.Int("layers", 0, "generator layers/segments for fork-join and random-layered (0 = default 12)")
		width       = flag.Int("width", 0, "generator fork width / tasks per layer (0 = default 8)")
		degree      = flag.Int("degree", 0, "random-layered max predecessors per node (0 = default 3)")
		disturb     = flag.String("interfere", "corun", "interference: none, corun, memory, dvfs, burst, throttle")
		share       = flag.Float64("share", 0.5, "victim core availability under co-run")
		seed        = flag.Uint64("seed", 42, "random seed (runtime and generator structure)")
		alpha       = flag.Float64("alpha", 0, "PTT new-sample weight (0 = paper's 1/5)")
		traceOut    = flag.String("trace", "", "write a Chrome trace (chrome://tracing) of the schedule to this file")
		explain     = flag.Bool("explain", false, "print a schedule report: per-core time breakdown, steal matrix, queue depths, PTT convergence")
		progress    = flag.Bool("progress", false, "report cell progress on stderr while the run executes")
		fingerprint = flag.Bool("fingerprint", false, "print the sha256 of the run's determinism fingerprint")
		list        = flag.Bool("list", false, "list generators, import formats and scenario families, then exit")
	)
	flag.Parse()

	if *list {
		printList()
		return
	}

	pol, err := core.ByName(*policyName)
	if err != nil {
		fatal(err)
	}

	var disturbances []scenario.Disturbance
	switch *disturb {
	case "none":
	case "corun":
		disturbances = []scenario.Disturbance{{Kind: scenario.CoRunCPU, Cores: []int{0}, Share: *share}}
	case "memory":
		disturbances = []scenario.Disturbance{{Kind: scenario.CoRunMemory, Cores: []int{0}, Share: *share, BWFactor: 0.8}}
	case "dvfs":
		disturbances = []scenario.Disturbance{scenario.PaperDVFS(0)}
	case "burst":
		disturbances = []scenario.Disturbance{{Kind: scenario.Burst, Cluster: 0, Share: *share, BusyDur: 1, IdleDur: 2, PhaseStep: 0.5}}
	case "throttle":
		disturbances = []scenario.Disturbance{{Kind: scenario.Throttle, Cluster: 0, From: 1, To: 4, Floor: 0.3, RampSteps: 6}}
	default:
		fatal(fmt.Errorf("unknown interference %q (known: none, corun, memory, dvfs, burst, throttle)", *disturb))
	}

	workload, describe, err := buildWorkload(workloadFlags{
		dagfile: *dagfile, format: *format,
		gen: *gen, tiles: *tiles, tile: *tile, layers: *layers, width: *width, degree: *degree, seed: *seed,
		kernel: *kernelName, tasks: *tasks, parallelism: *parallelism,
	})
	if err != nil {
		fatal(err)
	}

	spec := scenario.Spec{
		Name:     "dagsim",
		Platform: scenario.PlatformSpec{Preset: *platform},
		Workload: workload,
		Disturb:  disturbances,
		Policies: []core.Policy{pol},
		Seed:     *seed,
		Alpha:    *alpha,
	}
	if *progress {
		spec.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rdagsim: %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	// A report or trace render wants the probe's telemetry and counter
	// lanes, so both run the one cell traced; neither changes the
	// simulated schedule.
	var res *scenario.Result
	var rec *trace.Recorder
	if *explain || *traceOut != "" {
		res, rec, err = runTraced(spec)
	} else {
		res, err = scenario.Run(spec)
	}
	if err != nil {
		fatal(err)
	}
	run := res.Cells[0][0].Run()

	fmt.Printf("platform: %s\n", res.Topo)
	fmt.Printf("policy %s, %s, interference %s\n", pol.Name(), describe, *disturb)
	fmt.Printf("\nthroughput: %.0f tasks/s   makespan: %.3f s   tasks completed: %d\n",
		run.Throughput, run.Makespan, run.TasksDone)
	fmt.Println("\nper-core kernel work time [s]:")
	for c, b := range run.CoreBusy {
		fmt.Printf("  core %-2d %8.3f\n", c, b)
	}
	fmt.Println("\npriority task placement:")
	for i, ps := range run.HighHist {
		if i >= 10 || ps.Frac < 0.001 {
			break
		}
		fmt.Printf("  %-8s %6.1f%%  (%d tasks)\n", ps.Place, ps.Frac*100, ps.Count)
	}
	fmt.Printf("\nsteals: %d\n", run.Steals)
	if *explain {
		if sched := run.Sched; sched != nil {
			fmt.Println()
			sched.WriteReport(os.Stdout)
		}
	}
	if *fingerprint {
		sum := sha256.Sum256([]byte(res.Fingerprint()))
		fmt.Printf("fingerprint: %s\n", hex.EncodeToString(sum[:]))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		fmt.Printf("schedule trace (%d events) written to %s\n", rec.Len(), *traceOut)
	}
}

// runTraced runs the spec's one cell with a schedule recorder and probe
// attached, names the cell's trace row after it, and merges the result.
func runTraced(spec scenario.Spec) (*scenario.Result, *trace.Recorder, error) {
	plan, err := scenario.NewPlan(spec)
	if err != nil {
		return nil, nil, err
	}
	c := plan.Cells[0]
	if spec.Progress != nil {
		spec.Progress(0, 1)
	}
	rm, rec, err := plan.RunCellTrace(c)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %q: %s: %w", spec.Name, plan.CellLabel(c), err)
	}
	if spec.Progress != nil {
		spec.Progress(1, 1)
	}
	rec.Group(0, plan.CellLabel(c))
	res, err := scenario.Merge(plan, map[string]scenario.RunMetrics{c.Hash: rm})
	return res, rec, err
}

// workloadFlags carries the workload-selecting flag values.
type workloadFlags struct {
	dagfile, format                    string
	gen                                string
	tiles, tile, layers, width, degree int
	seed                               uint64
	kernel                             string
	tasks, parallelism                 int
}

// buildWorkload resolves the flags into a WorkloadSpec plus a one-line
// description for the report header.
func buildWorkload(f workloadFlags) (scenario.WorkloadSpec, string, error) {
	if f.dagfile != "" && f.gen != "" {
		return scenario.WorkloadSpec{}, "", fmt.Errorf("-dagfile and -gen are mutually exclusive (one run, one workload source)")
	}
	switch {
	case f.dagfile != "":
		g, err := dagio.LoadFile(f.dagfile, f.format)
		if err != nil {
			return scenario.WorkloadSpec{}, "", err
		}
		digest, err := g.Digest()
		if err != nil {
			return scenario.WorkloadSpec{}, "", err
		}
		desc := fmt.Sprintf("imported %s (%d tasks, %d edges, digest %s)",
			f.dagfile, len(g.Nodes), len(g.Edges), digest[:12])
		return scenario.WorkloadSpec{Kind: scenario.DAGFile, DAG: g}, desc, nil
	case f.gen != "":
		cfg := dagio.GenConfig{
			Model: f.gen, Tiles: f.tiles, Tile: f.tile,
			Layers: f.layers, Width: f.width, Degree: f.degree, Seed: f.seed,
		}
		g, err := cfg.Graph()
		if err != nil {
			return scenario.WorkloadSpec{}, "", err
		}
		digest, err := g.Digest()
		if err != nil {
			return scenario.WorkloadSpec{}, "", err
		}
		desc := fmt.Sprintf("generated %s (%d tasks, %d edges, digest %s)",
			f.gen, len(g.Nodes), len(g.Edges), digest[:12])
		return scenario.WorkloadSpec{Kind: scenario.DAGGen, DAGGen: cfg}, desc, nil
	default:
		var kernel workloads.KernelKind
		switch strings.ToLower(f.kernel) {
		case "matmul":
			kernel = workloads.MatMul
		case "copy":
			kernel = workloads.Copy
		case "stencil":
			kernel = workloads.Stencil
		default:
			return scenario.WorkloadSpec{}, "", fmt.Errorf("unknown kernel %q (known kernels: matmul, copy, stencil)", f.kernel)
		}
		desc := fmt.Sprintf("kernel %s, %d tasks, DAG parallelism %d", kernel, f.tasks, f.parallelism)
		return scenario.WorkloadSpec{Kind: scenario.Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel:      kernel,
			Tile:        f.tile,
			Tasks:       f.tasks,
			Parallelism: f.parallelism,
		}}, desc, nil
	}
}

// printList enumerates everything dagsim can run, mirroring asymbench's
// -list for scenario families.
func printList() {
	fmt.Println("generators (-gen):")
	for _, m := range dagio.Models() {
		fmt.Printf("  %s\n", m)
	}
	fmt.Println("import formats (-dagfile with -format, or by extension .dot/.gv/.json):")
	for _, f := range dagio.Formats() {
		fmt.Printf("  %s\n", f)
	}
	fmt.Println("scenario families (run with asymbench -scenario, or POST {\"family\": ...} to asymd):")
	width := 0
	for _, n := range scenario.Names() {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range scenario.Names() {
		f, _ := scenario.Lookup(n)
		fmt.Printf("  %-*s  %s\n", width, n, f.Desc)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dagsim: %v\n", err)
	os.Exit(1)
}
