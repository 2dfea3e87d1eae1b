// Package metrics collects execution statistics from the runtimes: per-core
// kernel work time (paper Figure 6), priority-task place distributions
// (Figure 5), per-iteration timings and place selections (Figure 9), and
// overall throughput (Figures 4, 7, 10).
package metrics

import (
	"sort"
	"sync"

	"dynasym/internal/ptt"
	"dynasym/internal/topology"
)

// maxDenseIter bounds the dense per-iteration index (well beyond the
// largest synthetic workload's layer count; ~8 MB of pointers at worst).
// Sparse tags above it fall back to a map, preserving the pre-dense
// behavior for arbitrary iteration numbers.
const maxDenseIter = 1 << 20

// Collector accumulates statistics for one run. It is safe for concurrent
// use; the simulated runtime calls it from one goroutine, the real runtime
// from many workers.
type Collector struct {
	topo *topology.Platform

	mu       sync.Mutex
	coreBusy []float64
	// placeAll and placeHigh count task executions per placeID. They are
	// dense slices over the platform's place table rather than maps:
	// TaskDone runs once per task on the simulation hot path, and a slice
	// increment is an order of magnitude cheaper than a map update.
	placeAll  []int64
	placeHigh []int64
	// byIter is indexed by iteration number (iterations are small and
	// dense in every built-in workload; nil entries are iterations never
	// seen). Aggregation uses compact (placeID, count) pairs — an
	// iteration touches few distinct places, and a linear scan over a
	// short pair slice beats a map assignment per task by a wide margin.
	// byIterSparse catches tags above maxDenseIter so arbitrary
	// iteration numbers still work. IterStats materializes the public
	// dense rows on readout.
	byIter       []*iterAgg
	byIterSparse map[int]*iterAgg
	tasksDone    int64
	makespan     float64
	// aggFree pools retired iterAggs (and their place-pair storage) across
	// Reset cycles so pooled runtimes reach a steady state with no
	// per-iteration allocations.
	aggFree []*iterAgg
}

// iterAgg is the collector's internal per-iteration accumulator.
type iterAgg struct {
	iter       int
	tasks      int64
	start, end float64
	places     []placeCount
}

// placeCount is one (placeID, executions) pair of an iteration.
type placeCount struct {
	id int
	n  int64
}

// newIterAgg allocates one per-iteration accumulator with its place pairs
// pre-sized so typical iterations (a few distinct places) never regrow the
// slice; the repeated doubling from zero was the collector's dominant
// allocation source on the simulation hot path.
func (c *Collector) newIterAgg(iter int, start, finish float64) *iterAgg {
	if n := len(c.aggFree); n > 0 {
		st := c.aggFree[n-1]
		c.aggFree[n-1] = nil
		c.aggFree = c.aggFree[:n-1]
		*st = iterAgg{iter: iter, start: start, end: finish, places: st.places[:0]}
		return st
	}
	return &iterAgg{
		iter:   iter,
		start:  start,
		end:    finish,
		places: make([]placeCount, 0, 16),
	}
}

// bump increments the count for a placeID.
func (a *iterAgg) bump(id int) {
	for i := range a.places {
		if a.places[i].id == id {
			a.places[i].n++
			return
		}
	}
	a.places = append(a.places, placeCount{id: id, n: 1})
}

// IterStat aggregates one application iteration (Figure 9).
type IterStat struct {
	Iter  int
	Tasks int64
	// Start and End are the earliest task start and latest task finish
	// observed for the iteration, so End-Start approximates the
	// iteration's wall time.
	Start, End float64
	// Places counts tasks per placeID within the iteration, indexed by
	// place ID over the whole place table (zero where none ran).
	Places []int64
}

// NewCollector returns an empty collector for the platform: Reset on a
// zero collector.
func NewCollector(topo *topology.Platform) *Collector {
	c := &Collector{}
	c.Reset(topo)
	return c
}

// Reset empties the collector for a run on topo while reusing its storage,
// including the per-iteration accumulators, which move to a freelist for
// the next run. The platform may differ from the previous run's; pooled
// runtimes rebuild their topology per run.
func (c *Collector) Reset(topo *topology.Platform) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.topo = topo
	if n := topo.NumCores(); n != len(c.coreBusy) {
		c.coreBusy = make([]float64, n)
	} else {
		for i := range c.coreBusy {
			c.coreBusy[i] = 0
		}
	}
	if n := len(topo.Places()); n != len(c.placeAll) {
		c.placeAll = make([]int64, n)
		c.placeHigh = make([]int64, n)
	} else {
		for i := range c.placeAll {
			c.placeAll[i] = 0
			c.placeHigh[i] = 0
		}
	}
	for i, st := range c.byIter {
		if st != nil {
			c.aggFree = append(c.aggFree, st)
			c.byIter[i] = nil
		}
	}
	c.byIter = c.byIter[:0]
	for iter, st := range c.byIterSparse {
		c.aggFree = append(c.aggFree, st)
		delete(c.byIterSparse, iter)
	}
	c.tasksDone = 0
	c.makespan = 0
}

// TaskDone records one completed task execution.
func (c *Collector) TaskDone(pl topology.Place, high bool, typ ptt.TypeID, iter int, start, finish float64) {
	c.TaskDoneID(c.topo.PlaceID(pl), pl, high, typ, iter, start, finish)
}

// TaskDoneID is TaskDone with the place's dense id already resolved — the
// simulated runtime resolves it once at dispatch and reuses it here.
func (c *Collector) TaskDoneID(id int, pl topology.Place, high bool, _ ptt.TypeID, iter int, start, finish float64) {
	span := finish - start
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tasksDone++
	c.placeAll[id]++
	if high {
		c.placeHigh[id]++
	}
	for i := 0; i < pl.Width; i++ {
		c.coreBusy[pl.Leader+i] += span
	}
	if iter >= 0 {
		var st *iterAgg
		if iter < maxDenseIter {
			for iter >= len(c.byIter) {
				c.byIter = append(c.byIter, nil)
			}
			if st = c.byIter[iter]; st == nil {
				st = c.newIterAgg(iter, start, finish)
				c.byIter[iter] = st
			}
		} else {
			if c.byIterSparse == nil {
				c.byIterSparse = make(map[int]*iterAgg)
			}
			if st = c.byIterSparse[iter]; st == nil {
				st = c.newIterAgg(iter, start, finish)
				c.byIterSparse[iter] = st
			}
		}
		st.tasks++
		if start < st.start {
			st.start = start
		}
		if finish > st.end {
			st.end = finish
		}
		st.bump(id)
	}
}

// SetMakespan records the total execution time of the run.
func (c *Collector) SetMakespan(t float64) {
	c.mu.Lock()
	c.makespan = t
	c.mu.Unlock()
}

// Makespan returns the recorded total execution time.
func (c *Collector) Makespan() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.makespan
}

// TasksDone returns the number of completed tasks.
func (c *Collector) TasksDone() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tasksDone
}

// Throughput returns completed tasks per second of makespan (the paper's
// headline metric), or 0 when no makespan was recorded.
func (c *Collector) Throughput() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.makespan <= 0 {
		return 0
	}
	return float64(c.tasksDone) / c.makespan
}

// CoreBusy returns the per-core accumulated kernel work time in seconds
// (excluding runtime activity and idleness, like the paper's Figure 6).
func (c *Collector) CoreBusy() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.coreBusy...)
}

// PlaceShare describes one execution place's share of task executions.
type PlaceShare struct {
	Place topology.Place
	Count int64
	Frac  float64
}

// PlaceHistogram returns the distribution of tasks over execution places,
// restricted to high-priority tasks when highOnly is set, sorted by
// descending count then place order. Fractions sum to 1 when any tasks
// were recorded.
func (c *Collector) PlaceHistogram(highOnly bool) []PlaceShare {
	c.mu.Lock()
	src := c.placeAll
	if highOnly {
		src = c.placeHigh
	}
	var total int64
	out := make([]PlaceShare, 0, len(src))
	places := c.topo.Places()
	for id, n := range src {
		if n == 0 {
			continue
		}
		out = append(out, PlaceShare{Place: places[id], Count: n})
		total += n
	}
	c.mu.Unlock()
	for i := range out {
		if total > 0 {
			out[i].Frac = float64(out[i].Count) / float64(total)
		}
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

// IterStats returns the per-iteration statistics ordered by iteration.
// Every row's Places spans the platform's place table, and all rows are
// carved from one backing array.
func (c *Collector) IterStats() []IterStat {
	c.mu.Lock()
	aggs := make([]*iterAgg, 0, len(c.byIter)+len(c.byIterSparse))
	for _, st := range c.byIter {
		if st != nil {
			aggs = append(aggs, st)
		}
	}
	for _, st := range c.byIterSparse {
		aggs = append(aggs, st)
	}
	width := len(c.placeAll)
	places := make([]int64, len(aggs)*width)
	out := make([]IterStat, len(aggs))
	for i, st := range aggs {
		row := places[i*width : (i+1)*width : (i+1)*width]
		for _, pc := range st.places {
			row[pc.id] = pc.n
		}
		out[i] = IterStat{Iter: st.iter, Tasks: st.tasks, Start: st.start, End: st.end, Places: row}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Iter < out[j].Iter })
	return out
}

// Platform returns the platform the collector indexes places against.
func (c *Collector) Platform() *topology.Platform { return c.topo }
