// Command asymbench runs the registered scenario families: the paper's
// figures and ablations (fig4a … fig10, ablation-*) and the families that
// extend the evaluation beyond the paper.
//
// Usage:
//
//	asymbench -list                          # Table 1 and every family
//	asymbench -scenario fig4a                # one family, paper scale
//	asymbench -scenario fig4a -scale 0.1     # scaled down (faster)
//	asymbench -scenario all -scale 0.05      # every family, sorted by name
//	asymbench -scenario burst-sweep -explain # plus per-policy schedule reports
//
// Output is plain text: each family's throughput table, then any
// figure-specific view (place shares, per-core times, per-iteration
// tables); see EXPERIMENTS.md for the mapping to the paper's figures and
// the expected shapes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dynasym/internal/core"
	"dynasym/internal/metrics"
	"dynasym/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asymbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenName = fs.String("scenario", "", "scenario family (see -list) or 'all'")
		scale    = fs.Float64("scale", 1.0, "family scale in [0, 1]: 1 = paper scale, 0 = default (1)")
		seed     = fs.Uint64("seed", scenario.DefaultSeed, "random seed")
		progress = fs.Bool("progress", false, "report per-cell progress on stderr while a family runs")
		explain  = fs.Bool("explain", false, "print per-policy schedule reports (time breakdown, steal matrix, PTT convergence) after each table")
		list     = fs.Bool("list", false, "print Table 1 and list the scenario families")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list || *scenName == "" {
		writeList(stdout)
		if *scenName == "" {
			if *list {
				return 0
			}
			return 2
		}
	}
	if err := scenario.CheckScale(*scale); err != nil {
		fmt.Fprintf(stderr, "asymbench: %v\n", err)
		return 2
	}
	names := []string{*scenName}
	if *scenName == "all" {
		names = scenario.Names()
	}
	for i, name := range names {
		f, ok := scenario.Lookup(name)
		if !ok {
			fmt.Fprintf(stderr, "asymbench: unknown scenario %q (available: all, %s)\n",
				name, strings.Join(scenario.Names(), ", "))
			return 1
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := runFamily(stdout, stderr, f, *scale, *seed, *progress, *explain); err != nil {
			fmt.Fprintf(stderr, "asymbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// runFamily runs one family and prints its table, its view and, with
// explain, its schedule reports.
func runFamily(stdout, stderr io.Writer, f scenario.Family, scale float64, seed uint64, progress, explain bool) error {
	start := time.Now()
	spec := f.Spec(scale, seed)
	spec.Probe = explain
	if progress {
		// The engine reports (done, total) monotonically, once per
		// finished (policy × point × rep) cell.
		spec.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\r%s: %d/%d cells", f.Name, done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	res, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	res.WriteTable(stdout)
	if f.View != nil {
		f.View(stdout, spec, res)
	}
	fmt.Fprintf(stdout, "(%s on %s in %.1fs)\n", f.Name, res.Topo, time.Since(start).Seconds())
	if explain {
		explainResult(stdout, res)
	}
	return nil
}

// writeList prints the paper's Table 1 (the feature matrix of the
// implemented policies) and one line per registered family.
func writeList(w io.Writer) {
	fmt.Fprintln(w, "# Table 1: features summary of all evaluated schedulers")
	row := "%-8s  %-22s  %-12s  %s\n"
	fmt.Fprintf(w, row, "Name", "[A]symmetry awareness", "[M]oldability", "Priority placement")
	for _, p := range core.All() {
		f := core.FeaturesOf(p)
		fmt.Fprintf(w, row, p.Name(), f.Asymmetry, f.Mold, f.Placement)
	}
	fmt.Fprintln(w, "\nscenario families (-scenario):")
	width := 0
	for _, n := range scenario.Names() {
		width = max(width, len(n))
	}
	for _, n := range scenario.Names() {
		f, _ := scenario.Lookup(n)
		fmt.Fprintf(w, "  %-*s  %s\n", width, n, f.Desc)
	}
}

// explainResult prints one schedule report per policy, each merged over
// the policy's full row of cells (every point and repetition).
func explainResult(w io.Writer, res *scenario.Result) {
	for pi, pol := range res.Policies {
		var merged *metrics.Sched
		for xi := range res.Cells[pi] {
			if s := res.Cells[pi][xi].Sched(); s != nil {
				if merged == nil {
					merged = s
				} else {
					merged.Merge(s)
				}
			}
		}
		if merged == nil {
			continue
		}
		fmt.Fprintf(w, "\n## schedule report: %s\n", pol)
		merged.WriteReport(w)
	}
}
