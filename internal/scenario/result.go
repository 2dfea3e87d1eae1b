package scenario

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"dynasym/internal/metrics"
	"dynasym/internal/topology"
)

// RunMetrics is the aggregated outcome of one repetition of one cell. For
// distributed scenarios the per-core and per-place views concatenate and
// merge the nodes' collectors.
type RunMetrics struct {
	// Seed is the runtime seed this repetition ran with.
	Seed uint64
	// Throughput is completed tasks per second of makespan.
	Throughput float64
	// Makespan is the virtual time of the last task completion.
	Makespan float64
	// TasksDone counts completed task executions.
	TasksDone int64
	// CoreBusy is per-core accumulated kernel work time in seconds
	// (node-major concatenation for distributed runs).
	CoreBusy []float64
	// HighHist is the distribution of high-priority tasks over places.
	HighHist []metrics.PlaceShare
	// Iters holds per-iteration statistics for iterative workloads.
	Iters []metrics.IterStat
	// Steals, FailedSteals and Dispatches sum the scheduler counters over
	// all cores (and nodes).
	Steals, FailedSteals, Dispatches int64
	// Sched carries scheduler-introspection telemetry when the run
	// executed with a probe (Spec.Probe); nil otherwise. It rides the
	// shard wire format like every other field, so remote cells report
	// too. Deliberately not part of Fingerprint: telemetry describes a
	// run, it does not define one.
	Sched *metrics.Sched `json:",omitempty"`
}

// Cell is one (policy, point) position of the grid with all repetitions.
type Cell struct {
	Policy string
	Point  Point
	Runs   []RunMetrics
}

// Run returns the first repetition — the canonical single-run view that
// reproduces a standalone execution with the spec's base seed.
func (c *Cell) Run() RunMetrics { return c.Runs[0] }

// MeanThroughput averages throughput over repetitions.
func (c *Cell) MeanThroughput() float64 {
	sum := 0.0
	for _, r := range c.Runs {
		sum += r.Throughput
	}
	return sum / float64(len(c.Runs))
}

// Sched merges the repetitions' scheduler telemetry, or nil when the cell
// ran without probes.
func (c *Cell) Sched() *metrics.Sched {
	var out *metrics.Sched
	for _, r := range c.Runs {
		if r.Sched == nil {
			continue
		}
		if out == nil {
			out = r.Sched.Clone()
		} else {
			out.Merge(r.Sched)
		}
	}
	return out
}

// Result is the full grid of a scenario run.
type Result struct {
	// Name echoes the spec.
	Name string
	// Topo is the platform the cells ran on (one node's platform for
	// distributed scenarios).
	Topo *topology.Platform
	// Policies and Points give the grid axes in spec order.
	Policies []string
	Points   []Point
	// Cells is indexed [policy][point].
	Cells [][]Cell
}

// Cell returns the cell for a policy name and point label, or nil.
func (r *Result) Cell(policy, label string) *Cell {
	for pi, p := range r.Policies {
		if p != policy {
			continue
		}
		for xi, pt := range r.Points {
			if pt.Label == label {
				return &r.Cells[pi][xi]
			}
		}
	}
	return nil
}

// Throughputs returns the mean-throughput grid indexed [policy][point].
func (r *Result) Throughputs() [][]float64 {
	out := make([][]float64, len(r.Policies))
	for pi := range r.Cells {
		out[pi] = make([]float64, len(r.Points))
		for xi := range r.Cells[pi] {
			out[pi][xi] = r.Cells[pi][xi].MeanThroughput()
		}
	}
	return out
}

// WriteTable renders the mean-throughput grid as an aligned text table.
func (r *Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", r.Name)
	fmt.Fprintf(w, "%-12s", "policy")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%12s", pt.Label)
	}
	fmt.Fprintln(w)
	for pi, p := range r.Policies {
		fmt.Fprintf(w, "%-12s", p)
		for xi := range r.Points {
			fmt.Fprintf(w, "%12.0f", r.Cells[pi][xi].MeanThroughput())
		}
		fmt.Fprintln(w)
	}
}

// Fingerprint serializes every metric of every repetition bit-exactly.
// Two runs of the same spec must produce identical fingerprints; the
// determinism regression tests rely on this.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s topo=%s\n", r.Name, r.Topo)
	for pi, p := range r.Policies {
		for xi, pt := range r.Points {
			for rep, run := range r.Cells[pi][xi].Runs {
				fmt.Fprintf(&b, "%s/%s/r%d seed=%d tput=%x mk=%x tasks=%d steals=%d fsteals=%d disp=%d\n",
					p, pt.Label, rep, run.Seed,
					math.Float64bits(run.Throughput), math.Float64bits(run.Makespan),
					run.TasksDone, run.Steals, run.FailedSteals, run.Dispatches)
				b.WriteString(" busy")
				for _, v := range run.CoreBusy {
					fmt.Fprintf(&b, " %x", math.Float64bits(v))
				}
				b.WriteString("\n hist")
				for _, ps := range run.HighHist {
					fmt.Fprintf(&b, " %s:%d:%x", ps.Place, ps.Count, math.Float64bits(ps.Frac))
				}
				b.WriteString("\n iters")
				for _, st := range run.Iters {
					fmt.Fprintf(&b, " %d:%d:%x:%x:%s", st.Iter, st.Tasks,
						math.Float64bits(st.Start), math.Float64bits(st.End), placesKey(st.Places))
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

// placesKey renders an iteration's place counts in deterministic order.
func placesKey(places map[int]int64) string {
	ids := make([]int, 0, len(places))
	for id := range places {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d=%d", id, places[id])
	}
	return strings.Join(parts, ",")
}

// mergeHists merges per-node place histograms into one distribution,
// sorted like metrics.PlaceHistogram (count descending, then place order).
func mergeHists(hists ...[]metrics.PlaceShare) []metrics.PlaceShare {
	counts := map[topology.Place]int64{}
	var total int64
	for _, h := range hists {
		for _, ps := range h {
			counts[ps.Place] += ps.Count
			total += ps.Count
		}
	}
	out := make([]metrics.PlaceShare, 0, len(counts))
	for pl, n := range counts {
		ps := metrics.PlaceShare{Place: pl, Count: n}
		if total > 0 {
			ps.Frac = float64(n) / float64(total)
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Place.Leader != out[j].Place.Leader {
			return out[i].Place.Leader < out[j].Place.Leader
		}
		return out[i].Place.Width < out[j].Place.Width
	})
	return out
}
