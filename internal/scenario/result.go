package scenario

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

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
	// executed with a probe (Spec.Probe); nil otherwise. The service runs
	// every job without a probe, so its cells, local or remote, never
	// carry Sched and the shard wire has no field for it; in-process runs
	// (scenario.Run, explain, simtrace) fill it. Deliberately not part of
	// Fingerprint: telemetry describes a run, it does not define one.
	Sched *metrics.Sched
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
// determinism regression tests rely on this. Floats print as the hex of
// their bits; an iteration's places print as "id=count" pairs, nonzero
// counts in place-ID order. The text is appended with strconv into one
// buffer sized up front: a synthetic grid carries a stat per DAG layer,
// so this runs over megabytes per result.
func (r *Result) Fingerprint() string {
	b := make([]byte, 0, r.fingerprintSize())
	b = append(b, "scenario="...)
	b = append(b, r.Name...)
	b = append(b, " topo="...)
	b = append(b, r.Topo.String()...)
	b = append(b, '\n')
	for pi, p := range r.Policies {
		for xi, pt := range r.Points {
			for rep, run := range r.Cells[pi][xi].Runs {
				b = append(b, p...)
				b = append(b, '/')
				b = append(b, pt.Label...)
				b = append(b, "/r"...)
				b = strconv.AppendInt(b, int64(rep), 10)
				b = append(b, " seed="...)
				b = strconv.AppendUint(b, run.Seed, 10)
				b = append(b, " tput="...)
				b = appendBits(b, run.Throughput)
				b = append(b, " mk="...)
				b = appendBits(b, run.Makespan)
				b = append(b, " tasks="...)
				b = strconv.AppendInt(b, run.TasksDone, 10)
				b = append(b, " steals="...)
				b = strconv.AppendInt(b, run.Steals, 10)
				b = append(b, " fsteals="...)
				b = strconv.AppendInt(b, run.FailedSteals, 10)
				b = append(b, " disp="...)
				b = strconv.AppendInt(b, run.Dispatches, 10)
				b = append(b, "\n busy"...)
				for _, v := range run.CoreBusy {
					b = append(b, ' ')
					b = appendBits(b, v)
				}
				b = append(b, "\n hist"...)
				for _, ps := range run.HighHist {
					b = append(b, " (C"...)
					b = strconv.AppendInt(b, int64(ps.Place.Leader), 10)
					b = append(b, ',')
					b = strconv.AppendInt(b, int64(ps.Place.Width), 10)
					b = append(b, "):"...)
					b = strconv.AppendInt(b, ps.Count, 10)
					b = append(b, ':')
					b = appendBits(b, ps.Frac)
				}
				b = append(b, "\n iters"...)
				for _, st := range run.Iters {
					b = append(b, ' ')
					b = strconv.AppendInt(b, int64(st.Iter), 10)
					b = append(b, ':')
					b = strconv.AppendInt(b, st.Tasks, 10)
					b = append(b, ':')
					b = appendBits(b, st.Start)
					b = append(b, ':')
					b = appendBits(b, st.End)
					b = append(b, ':')
					sep := false
					for id, n := range st.Places {
						if n == 0 {
							continue
						}
						if sep {
							b = append(b, ',')
						}
						sep = true
						b = strconv.AppendInt(b, int64(id), 10)
						b = append(b, '=')
						b = strconv.AppendInt(b, n, 10)
					}
				}
				b = append(b, '\n')
			}
		}
	}
	return string(b)
}

// appendBits appends the lowercase hex of a float's IEEE-754 bits.
func appendBits(b []byte, v float64) []byte {
	return strconv.AppendUint(b, math.Float64bits(v), 16)
}

// fingerprintSize estimates Fingerprint's length from the grid's shape
// (a float is at most 16 hex digits; an iteration touches a few places),
// so the buffer rarely grows.
func (r *Result) fingerprintSize() int {
	n := 256
	for pi := range r.Cells {
		for xi := range r.Cells[pi] {
			for _, run := range r.Cells[pi][xi].Runs {
				n += 192 + 17*len(run.CoreBusy) + 40*len(run.HighHist)
				for _, st := range run.Iters {
					n += 48 + len(st.Places)
				}
			}
		}
	}
	return n
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
