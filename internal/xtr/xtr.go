// Package xtr is the real (wall-clock) task runtime: a Go reimplementation
// of the XiTAO execution model the paper builds on. One goroutine per
// virtual core runs the same protocol as the simulator (internal/simrt):
// per-worker Work-Stealing Queues, per-core FIFO Assembly Queues, moldable
// task execution with a rendezvous per assembly, online PTT updates from
// measured execution times, and policy-driven wake/dispatch placement.
//
// The same core.Policy values drive both runtimes, so schedules observed in
// simulation transfer directly to real execution. On Linux, workers can be
// pinned to CPUs (best effort) to approximate one-worker-per-core.
package xtr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynasym/internal/affinity"
	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/metrics"
	"dynasym/internal/ptt"
	"dynasym/internal/topology"
	"dynasym/internal/xrand"
)

// Config configures a real runtime.
type Config struct {
	// Topo defines the virtual cores (= workers) and their clustering.
	// Required. Note that real speeds come from the host machine; the
	// platform's Speed fields only affect the FA family's notion of the
	// "fast" cluster.
	Topo *topology.Platform
	// Policy is the scheduling policy. Required.
	Policy core.Policy
	// Alpha is the PTT new-observation weight; <= 0 selects the paper's
	// 1/5 default.
	Alpha float64
	// Seed drives stealing randomness.
	Seed uint64
	// Pin requests best-effort thread-to-CPU pinning (Linux only).
	Pin bool
}

// idleSleep is how long an idle worker sleeps between steal sweeps.
const idleSleep = 50 * time.Microsecond

// assembly is one committed moldable execution.
type assembly struct {
	task    *dag.Task
	place   topology.Place
	arrived atomic.Int32
	started atomic.Int64 // nanoseconds since run start; 0 = not started
	done    atomic.Int32
}

// worker is one virtual core.
type worker struct {
	id  int
	rng *xrand.RNG

	mu  sync.Mutex
	wsq []*dag.Task
	aq  []*assembly

	steals     int64
	dispatches int64
}

// Runtime executes task graphs with real parallelism.
type Runtime struct {
	cfg     Config
	topo    *topology.Platform
	policy  core.Policy
	reg     *ptt.Registry
	coll    *metrics.Collector
	rr      atomic.Uint64
	workers []*worker
	graph   *dag.Graph
	// dispatchMu serializes multi-queue AQ insertion so the relative order
	// of any two assemblies is identical in every queue they share (keeps
	// the rendezvous deadlock-free, as in the simulator).
	dispatchMu sync.Mutex

	start    time.Time
	finished atomic.Bool
	doneCh   chan struct{}
	wg       sync.WaitGroup
	makespan atomic.Int64 // nanoseconds
}

// New validates the configuration and builds a runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("xtr: Config.Topo is required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("xtr: Config.Policy is required")
	}
	rt := &Runtime{
		cfg:    cfg,
		topo:   cfg.Topo,
		policy: cfg.Policy,
		reg:    ptt.NewRegistry(cfg.Topo, cfg.Alpha),
		coll:   metrics.NewCollector(cfg.Topo),
		doneCh: make(chan struct{}),
	}
	root := xrand.New(cfg.Seed)
	rt.workers = make([]*worker, cfg.Topo.NumCores())
	for i := range rt.workers {
		rt.workers[i] = &worker{id: i, rng: root.Split()}
	}
	return rt, nil
}

// Registry returns the runtime's PTT registry.
func (rt *Runtime) Registry() *ptt.Registry { return rt.reg }

// Run executes the graph to completion and returns the collector.
func (rt *Runtime) Run(g *dag.Graph) (*metrics.Collector, error) {
	if rt.graph != nil {
		return nil, fmt.Errorf("xtr: runtime already used; create a new one per run")
	}
	rt.graph = g
	rt.start = time.Now()
	ready := g.Start()
	if len(ready) == 0 && g.Outstanding() > 0 {
		return nil, fmt.Errorf("xtr: graph has %d tasks but none ready (cycle?)", g.Outstanding())
	}
	if g.Outstanding() == 0 {
		rt.coll.SetMakespan(0)
		return rt.coll, nil
	}
	for _, t := range ready {
		rt.wakeTask(t, 0)
	}
	rt.wg.Add(len(rt.workers))
	for _, w := range rt.workers {
		go rt.workerLoop(w)
	}
	rt.wg.Wait()
	if !rt.finished.Load() {
		return nil, fmt.Errorf("xtr: workers exited with %d tasks outstanding", g.Outstanding())
	}
	rt.coll.SetMakespan(rt.seconds(rt.makespan.Load()))
	return rt.coll, nil
}

// seconds converts runtime-relative nanoseconds to seconds.
func (rt *Runtime) seconds(ns int64) float64 { return float64(ns) / 1e9 }

// now returns nanoseconds since run start.
func (rt *Runtime) now() int64 { return time.Since(rt.start).Nanoseconds() }

// table returns the PTT for a task type, or nil when the policy has no
// model.
func (rt *Runtime) table(id ptt.TypeID) *ptt.Table {
	if !rt.policy.UsesPTT() {
		return nil
	}
	return rt.reg.Get(id)
}

func (rt *Runtime) ctx(self int, t *dag.Task, rng *xrand.RNG) *core.Context {
	return &core.Context{
		Self:  self,
		High:  t.High,
		Type:  t.Type,
		Table: rt.table(t.Type),
		Topo:  rt.topo,
		Rand:  rng,
		RR:    &rt.rr,
	}
}

// wakeTask routes a newly ready task to a WSQ (wake-time placement).
func (rt *Runtime) wakeTask(t *dag.Task, waker int) {
	w := rt.workers[waker]
	leader, ok := rt.policy.WakePlace(rt.ctx(waker, t, w.rng))
	if !ok {
		leader = waker
	}
	target := rt.workers[leader]
	target.mu.Lock()
	target.wsq = append(target.wsq, t)
	target.mu.Unlock()
}

// popLocal implements the worker's own-queue disciplines: pending
// high-priority task first (criticality-aware policies), then LIFO.
func (w *worker) popLocal(preferHigh bool) (*dag.Task, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.wsq)
	if n == 0 {
		return nil, false
	}
	idx := n - 1
	if preferHigh && !w.wsq[idx].High {
		for i := n - 2; i >= 0; i-- {
			if w.wsq[i].High {
				idx = i
				break
			}
		}
	}
	t := w.wsq[idx]
	copy(w.wsq[idx:], w.wsq[idx+1:])
	w.wsq[n-1] = nil
	w.wsq = w.wsq[:n-1]
	return t, true
}

// popHigh removes the newest high-priority task, if any.
func (w *worker) popHigh() (*dag.Task, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.wsq) - 1; i >= 0; i-- {
		if w.wsq[i].High {
			t := w.wsq[i]
			copy(w.wsq[i:], w.wsq[i+1:])
			w.wsq[len(w.wsq)-1] = nil
			w.wsq = w.wsq[:len(w.wsq)-1]
			return t, true
		}
	}
	return nil, false
}

// stealOldest removes the oldest stealable task from the victim.
func (w *worker) stealOldest(allowHigh bool) (*dag.Task, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, t := range w.wsq {
		if allowHigh || !t.High {
			copy(w.wsq[i:], w.wsq[i+1:])
			w.wsq[len(w.wsq)-1] = nil
			w.wsq = w.wsq[:len(w.wsq)-1]
			return t, true
		}
	}
	return nil, false
}

// popAssembly takes the next committed assembly from the worker's AQ.
func (w *worker) popAssembly() (*assembly, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.aq) == 0 {
		return nil, false
	}
	a := w.aq[0]
	copy(w.aq, w.aq[1:])
	w.aq[len(w.aq)-1] = nil
	w.aq = w.aq[:len(w.aq)-1]
	return a, true
}

// dispatch runs the final placement decision and inserts the assembly.
func (rt *Runtime) dispatch(w *worker, t *dag.Task) {
	pl := rt.policy.DispatchPlace(rt.ctx(w.id, t, w.rng))
	if !rt.topo.Valid(pl) {
		panic(fmt.Sprintf("xtr: policy %s produced invalid place %v", rt.policy.Name(), pl))
	}
	t.MarkRunning()
	a := &assembly{task: t, place: pl}
	rt.dispatchMu.Lock()
	for i := 0; i < pl.Width; i++ {
		m := rt.workers[pl.Leader+i]
		m.mu.Lock()
		if t.High && pl.Width == 1 {
			// Width-1 high-priority assemblies jump the queue (safe: no
			// rendezvous, so no circular wait can form).
			m.aq = append(m.aq, nil)
			copy(m.aq[1:], m.aq)
			m.aq[0] = a
		} else {
			m.aq = append(m.aq, a)
		}
		m.mu.Unlock()
	}
	rt.dispatchMu.Unlock()
	atomic.AddInt64(&w.dispatches, 1)
}

// join participates in an assembly: arrive, rendezvous, execute this
// member's partition, and let the last member commit the task.
func (rt *Runtime) join(w *worker, a *assembly) {
	width := a.place.Width
	if a.arrived.Add(1) == int32(width) {
		a.started.Store(rt.now())
	} else {
		for a.started.Load() == 0 {
			runtime.Gosched()
		}
	}
	part := w.id - a.place.Leader
	if a.task.Body != nil {
		a.task.Body(dag.Exec{Part: part, Width: width, Leader: a.place.Leader, Worker: w.id})
	}
	if a.done.Add(1) != int32(width) {
		return
	}
	// Last member: measure, update the model, commit, wake dependents.
	finish := rt.now()
	startS := rt.seconds(a.started.Load())
	finishS := rt.seconds(finish)
	if tbl := rt.table(a.task.Type); tbl != nil {
		tbl.Update(a.place, finishS-startS)
	}
	rt.coll.TaskDone(a.place, a.task.High, a.task.Type, a.task.Iter, startS, finishS)
	ready, drained := rt.graph.Complete(a.task)
	for _, t := range ready {
		rt.wakeTask(t, a.place.Leader)
	}
	if drained {
		rt.makespan.Store(finish)
		rt.finished.Store(true)
		close(rt.doneCh)
	}
}

// workerLoop is the per-core scheduling loop, mirroring the simulator's
// step function: waiting high-priority dispatches first, then committed
// assemblies, then local tasks, then stealing.
func (rt *Runtime) workerLoop(w *worker) {
	defer rt.wg.Done()
	if rt.cfg.Pin && affinity.Supported() {
		if err := affinity.Pin(w.id); err == nil {
			defer affinity.Unpin()
		}
	}
	preferHigh := !rt.policy.AllowPrioritySteal()
	for {
		if preferHigh {
			if t, ok := w.popHigh(); ok {
				rt.dispatch(w, t)
				continue
			}
		}
		if a, ok := w.popAssembly(); ok {
			rt.join(w, a)
			continue
		}
		if t, ok := w.popLocal(preferHigh); ok {
			rt.dispatch(w, t)
			continue
		}
		if t, ok := rt.trySteal(w); ok {
			atomic.AddInt64(&w.steals, 1)
			rt.dispatch(w, t)
			continue
		}
		select {
		case <-rt.doneCh:
			// Drain any assemblies we still owe a rendezvous to.
			if a, ok := w.popAssembly(); ok {
				rt.join(w, a)
				continue
			}
			return
		default:
			time.Sleep(idleSleep)
		}
	}
}

// trySteal sweeps the other workers from a random start.
func (rt *Runtime) trySteal(w *worker) (*dag.Task, bool) {
	n := len(rt.workers)
	if n <= 1 {
		return nil, false
	}
	allowHigh := rt.policy.AllowPrioritySteal()
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := rt.workers[(start+i)%n]
		if v == w {
			continue
		}
		if t, ok := v.stealOldest(allowHigh); ok {
			return t, true
		}
	}
	return nil, false
}

// Stats exposes per-worker counters.
type Stats struct {
	Steals, Dispatches int64
}

// WorkerStats returns per-worker counters.
func (rt *Runtime) WorkerStats() []Stats {
	out := make([]Stats, len(rt.workers))
	for i, w := range rt.workers {
		out[i] = Stats{
			Steals:     atomic.LoadInt64(&w.steals),
			Dispatches: atomic.LoadInt64(&w.dispatches),
		}
	}
	return out
}

// SpinLoad starts n busy-spinning OS threads as a synthetic interfering
// application (the real-mode counterpart of the paper's co-runner). Stop it
// by closing the returned channel's companion stop function.
func SpinLoad(n int) (stop func()) {
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			x := 1.0
			for {
				select {
				case <-stopCh:
					_ = x
					return
				default:
					for j := 0; j < 1024; j++ {
						x = x*1.000000001 + 0.000001
					}
				}
			}
		}()
	}
	return func() {
		close(stopCh)
		wg.Wait()
	}
}
