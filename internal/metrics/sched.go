package metrics

// Scheduler-introspection telemetry. A simrt.Probe accumulates raw
// observations during a run and simrt.Runtime.Sched renders them as a
// Sched aggregate; the scenario layer copies the aggregate into each
// cell's RunMetrics of a probed in-process run, and Merge folds per-cell
// aggregates into per-policy or per-result views (Beside places a
// distributed cell's nodes side by side). Service jobs run unprobed, so
// Sched never crosses the shard wire.
// Every field is a sum or a maximum so merging stays exact; the derived
// rates (mean queue depth, PTT error) are methods over the sums.

import (
	"fmt"
	"io"
	"sort"
)

// StealEdge is one cell of the steal matrix: how many tasks a thief core
// took from a victim core's WSQ, split by task priority.
type StealEdge struct {
	Victim, Thief int
	Low, High     int64
}

// Sched is the merged scheduler-introspection telemetry of one or more
// runs: the per-core virtual-time breakdown, the steal matrix, queue-depth
// integrals, and the PTT prediction-vs-actual error sums.
type Sched struct {
	// Busy, Dispatch, Steal, Idle break each core's virtual time into
	// kernel work, dispatch windows, successful steal windows, and the
	// residual, in seconds. Idle is clamped at zero per run.
	Busy, Dispatch, Steal, Idle []float64
	// StealMatrix lists the non-zero victim → thief edges, victim-major.
	StealMatrix []StealEdge
	// Span sums the makespans of the merged runs — the denominator for
	// the time-weighted queue averages.
	Span float64
	// QueueSamples counts observed queue-state transitions; ReadySec and
	// CommittedSec integrate WSQ depth (ready tasks) and AQ depth
	// (committed assembly entries) over virtual time.
	QueueSamples int64
	ReadySec     float64
	CommittedSec float64
	MaxReady     int
	MaxCommitted int
	// PTTSamples counts completions whose place had a prior PTT estimate;
	// PTTErrSum accumulates |predicted−actual|/actual over them. The Tail
	// pair covers only the last quarter of each run's series, so a
	// converging table shows TailRelErr ≪ MeanRelErr.
	PTTSamples     int64
	PTTErrSum      float64
	PTTTailSamples int64
	PTTTailErrSum  float64
}

// TotalSteals sums the steal matrix (both priorities).
func (s *Sched) TotalSteals() int64 {
	var n int64
	for _, e := range s.StealMatrix {
		n += e.Low + e.High
	}
	return n
}

// MeanReady is the time-weighted mean number of ready tasks.
func (s *Sched) MeanReady() float64 {
	if s.Span <= 0 {
		return 0
	}
	return s.ReadySec / s.Span
}

// MeanCommitted is the time-weighted mean number of committed AQ entries.
func (s *Sched) MeanCommitted() float64 {
	if s.Span <= 0 {
		return 0
	}
	return s.CommittedSec / s.Span
}

// PTTMeanRelErr is the mean relative PTT prediction error over all
// observed completions.
func (s *Sched) PTTMeanRelErr() float64 {
	if s.PTTSamples == 0 {
		return 0
	}
	return s.PTTErrSum / float64(s.PTTSamples)
}

// PTTTailRelErr is the mean relative PTT prediction error over the last
// quarter of each merged run's completions.
func (s *Sched) PTTTailRelErr() float64 {
	if s.PTTTailSamples == 0 {
		return 0
	}
	return s.PTTTailErrSum / float64(s.PTTTailSamples)
}

// Clone returns a deep copy.
func (s *Sched) Clone() *Sched {
	if s == nil {
		return nil
	}
	out := *s
	out.Busy = append([]float64(nil), s.Busy...)
	out.Dispatch = append([]float64(nil), s.Dispatch...)
	out.Steal = append([]float64(nil), s.Steal...)
	out.Idle = append([]float64(nil), s.Idle...)
	out.StealMatrix = append([]StealEdge(nil), s.StealMatrix...)
	return &out
}

// Merge folds another aggregate into s. Per-core slices grow to the larger
// core count; the steal matrices merge edge-wise and stay victim-major.
func (s *Sched) Merge(o *Sched) {
	if o == nil {
		return
	}
	s.Busy = addInto(s.Busy, o.Busy)
	s.Dispatch = addInto(s.Dispatch, o.Dispatch)
	s.Steal = addInto(s.Steal, o.Steal)
	s.Idle = addInto(s.Idle, o.Idle)
	if len(o.StealMatrix) > 0 {
		type key struct{ v, t int }
		idx := make(map[key]int, len(s.StealMatrix)+len(o.StealMatrix))
		for i, e := range s.StealMatrix {
			idx[key{e.Victim, e.Thief}] = i
		}
		for _, e := range o.StealMatrix {
			if i, ok := idx[key{e.Victim, e.Thief}]; ok {
				s.StealMatrix[i].Low += e.Low
				s.StealMatrix[i].High += e.High
			} else {
				idx[key{e.Victim, e.Thief}] = len(s.StealMatrix)
				s.StealMatrix = append(s.StealMatrix, e)
			}
		}
		sort.Slice(s.StealMatrix, func(i, j int) bool {
			a, b := s.StealMatrix[i], s.StealMatrix[j]
			if a.Victim != b.Victim {
				return a.Victim < b.Victim
			}
			return a.Thief < b.Thief
		})
	}
	s.Span += o.Span
	s.addTotals(o)
}

// Beside places the aggregate of a run that shared s's virtual clock — the
// next node of a distributed cell — next to s: o's cores follow s's (its
// steal edges shift by len(s.Busy), keeping the matrix victim-major), Span
// is the longer of the two, and the queue and PTT totals add.
func (s *Sched) Beside(o *Sched) {
	off := len(s.Busy)
	s.Busy = append(s.Busy, o.Busy...)
	s.Dispatch = append(s.Dispatch, o.Dispatch...)
	s.Steal = append(s.Steal, o.Steal...)
	s.Idle = append(s.Idle, o.Idle...)
	for _, e := range o.StealMatrix {
		e.Victim += off
		e.Thief += off
		s.StealMatrix = append(s.StealMatrix, e)
	}
	s.Span = max(s.Span, o.Span)
	s.addTotals(o)
}

// addTotals folds o's queue and PTT sums and maxima into s.
func (s *Sched) addTotals(o *Sched) {
	s.QueueSamples += o.QueueSamples
	s.ReadySec += o.ReadySec
	s.CommittedSec += o.CommittedSec
	if o.MaxReady > s.MaxReady {
		s.MaxReady = o.MaxReady
	}
	if o.MaxCommitted > s.MaxCommitted {
		s.MaxCommitted = o.MaxCommitted
	}
	s.PTTSamples += o.PTTSamples
	s.PTTErrSum += o.PTTErrSum
	s.PTTTailSamples += o.PTTTailSamples
	s.PTTTailErrSum += o.PTTTailErrSum
}

// addInto sums b into a element-wise, growing a as needed.
func addInto(a, b []float64) []float64 {
	if len(b) > len(a) {
		grown := make([]float64, len(b))
		copy(grown, a)
		a = grown
	}
	for i, v := range b {
		a[i] += v
	}
	return a
}

// maxMatrixRows bounds the steal-matrix listing in WriteReport; fleets of
// 64+ cores have thousands of possible edges and the report is for humans.
const maxMatrixRows = 24

// WriteReport renders the aggregate as a human-readable schedule report:
// per-core utilization and time breakdown, the heaviest steal edges, queue
// pressure, and PTT convergence.
func (s *Sched) WriteReport(w io.Writer) {
	total := s.Span
	fmt.Fprintf(w, "per-core time breakdown (virtual time, %d cores, span %.6fs):\n", len(s.Busy), s.Span)
	fmt.Fprintf(w, "  %4s  %10s  %6s  %10s  %10s  %10s\n", "core", "busy", "util", "dispatch", "steal", "idle")
	for i := range s.Busy {
		var disp, steal, idle float64
		if i < len(s.Dispatch) {
			disp = s.Dispatch[i]
		}
		if i < len(s.Steal) {
			steal = s.Steal[i]
		}
		if i < len(s.Idle) {
			idle = s.Idle[i]
		}
		util := 0.0
		if total > 0 {
			util = s.Busy[i] / total
		}
		fmt.Fprintf(w, "  %4d  %10.6f  %5.1f%%  %10.6f  %10.6f  %10.6f\n",
			i, s.Busy[i], util*100, disp, steal, idle)
	}
	fmt.Fprintf(w, "steal matrix (victim -> thief, %d steals", s.TotalSteals())
	if len(s.StealMatrix) == 0 {
		fmt.Fprintf(w, "): none\n")
	} else {
		fmt.Fprintf(w, ", %d edges):\n", len(s.StealMatrix))
		edges := append([]StealEdge(nil), s.StealMatrix...)
		sort.Slice(edges, func(i, j int) bool {
			ni, nj := edges[i].Low+edges[i].High, edges[j].Low+edges[j].High
			if ni != nj {
				return ni > nj
			}
			if edges[i].Victim != edges[j].Victim {
				return edges[i].Victim < edges[j].Victim
			}
			return edges[i].Thief < edges[j].Thief
		})
		shown := edges
		if len(shown) > maxMatrixRows {
			shown = shown[:maxMatrixRows]
		}
		for _, e := range shown {
			fmt.Fprintf(w, "  C%-3d -> C%-3d  %6d low  %6d high\n", e.Victim, e.Thief, e.Low, e.High)
		}
		if len(edges) > len(shown) {
			fmt.Fprintf(w, "  (+%d more edges)\n", len(edges)-len(shown))
		}
	}
	fmt.Fprintf(w, "queues: mean ready %.2f (max %d), mean committed %.2f (max %d), %d transitions\n",
		s.MeanReady(), s.MaxReady, s.MeanCommitted(), s.MaxCommitted, s.QueueSamples)
	if s.PTTSamples > 0 {
		fmt.Fprintf(w, "ptt: %d predictions, mean rel err %.3f, tail rel err %.3f (last quarter)\n",
			s.PTTSamples, s.PTTMeanRelErr(), s.PTTTailRelErr())
	} else {
		fmt.Fprintf(w, "ptt: no predictions (policy does not use the PTT, or no repeat observations)\n")
	}
}
