package simrt

import (
	"math"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/kernels"
	"dynasym/internal/machine"
	"dynasym/internal/topology"
)

// probeGraph builds a steal-heavy workload: low-priority tasks wake onto
// core 0, so the other cores live on the steal path while high-priority
// tasks exercise the dispatch path.
func probeGraph(n int) *dag.Graph {
	g := dag.New()
	g.Grow(n)
	cost := kernels.MatMulCost(64)
	for i := 0; i < n; i++ {
		g.Add(&dag.Task{
			Label: "probe",
			Type:  kernels.TypeMatMul,
			High:  i%16 == 0,
			Cost:  cost,
			Iter:  -1,
		})
	}
	return g
}

// probeRun executes the workload to completion with the given probe (nil
// = probes off) and returns the runtime.
func probeRun(t *testing.T, p *Probe) *Runtime {
	t.Helper()
	topo := topology.TX2()
	rt, err := New(Config{Topo: topo, Model: machine.New(topo), Policy: core.DAMC(), Seed: 9, Probe: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(probeGraph(1200)); err != nil {
		t.Fatal(err)
	}
	rt.Engine().Run()
	if rt.Check() != nil {
		t.Fatal("run did not finish")
	}
	return rt
}

// An attached probe must be pure observation: every scheduler counter and
// every virtual-time metric must be bit-identical with and without it.
func TestProbeDoesNotPerturbRun(t *testing.T) {
	off := probeRun(t, nil)
	on := probeRun(t, NewProbe())

	if a, b := off.Collector().Makespan(), on.Collector().Makespan(); a != b {
		t.Fatalf("makespan diverged: off=%v on=%v", a, b)
	}
	offStats, onStats := off.CoreStats(), on.CoreStats()
	for i := range offStats {
		if offStats[i] != onStats[i] {
			t.Fatalf("core %d counters diverged: off=%+v on=%+v", i, offStats[i], onStats[i])
		}
	}
	offBusy, onBusy := off.Collector().CoreBusy(), on.Collector().CoreBusy()
	for i := range offBusy {
		if offBusy[i] != onBusy[i] {
			t.Fatalf("core %d busy diverged: off=%v on=%v", i, offBusy[i], onBusy[i])
		}
	}
	if off.Sched(off.Makespan()) != nil {
		t.Fatal("probe-off run produced Sched telemetry")
	}
	if on.Sched(on.Makespan()) == nil {
		t.Fatal("probe-on run produced no Sched telemetry")
	}
}

// The steal matrix is an exact decomposition of the steal counters: the
// per-thief edge sums must equal CoreStats' per-core steal counts.
func TestProbeStealMatrixMatchesCounters(t *testing.T) {
	rt := probeRun(t, NewProbe())
	sched := rt.Sched(rt.Makespan())
	stats := rt.CoreStats()

	perThief := make([]int64, len(stats))
	var matrixTotal int64
	for _, e := range sched.StealMatrix {
		if e.Victim < 0 || e.Victim >= len(stats) || e.Thief < 0 || e.Thief >= len(stats) {
			t.Fatalf("edge %+v outside the %d-core platform", e, len(stats))
		}
		if e.Low < 0 || e.High < 0 || e.Low+e.High == 0 {
			t.Fatalf("degenerate edge %+v", e)
		}
		perThief[e.Thief] += e.Low + e.High
		matrixTotal += e.Low + e.High
	}
	var statsTotal int64
	for i, s := range stats {
		statsTotal += s.Steals
		if perThief[i] != s.Steals {
			t.Fatalf("thief %d: matrix says %d steals, counters say %d", i, perThief[i], s.Steals)
		}
	}
	if matrixTotal != statsTotal || sched.TotalSteals() != statsTotal {
		t.Fatalf("matrix total %d (TotalSteals %d) != counter total %d", matrixTotal, sched.TotalSteals(), statsTotal)
	}
}

// The per-core time breakdown must partition the makespan: busy +
// dispatch + steal + idle = span for every core, with nothing negative.
func TestProbeTimeBreakdownPartitionsSpan(t *testing.T) {
	rt := probeRun(t, NewProbe())
	sched := rt.Sched(rt.Makespan())
	if sched.Span <= 0 {
		t.Fatalf("span %v, want > 0", sched.Span)
	}
	for i := range sched.Busy {
		for _, v := range []float64{sched.Busy[i], sched.Dispatch[i], sched.Steal[i], sched.Idle[i]} {
			if v < 0 {
				t.Fatalf("core %d has a negative component: busy=%v dispatch=%v steal=%v idle=%v",
					i, sched.Busy[i], sched.Dispatch[i], sched.Steal[i], sched.Idle[i])
			}
		}
		sum := sched.Busy[i] + sched.Dispatch[i] + sched.Steal[i] + sched.Idle[i]
		if math.Abs(sum-sched.Span) > 1e-9*math.Max(1, sched.Span) {
			t.Fatalf("core %d breakdown sums to %v, span is %v", i, sum, sched.Span)
		}
	}
	if sched.QueueSamples == 0 || sched.MeanReady() <= 0 {
		t.Fatalf("queue telemetry empty: samples=%d meanReady=%v", sched.QueueSamples, sched.MeanReady())
	}
	if sched.PTTSamples == 0 {
		t.Fatal("no PTT prediction samples on a PTT policy")
	}
}

// A probe reused across Runtime.Reset must report each run's telemetry in
// isolation: two identical runs through one probe yield identical Sched.
func TestProbeReuseAcrossReset(t *testing.T) {
	topo := topology.TX2()
	p := NewProbe()
	cfg := Config{Topo: topo, Model: machine.New(topo), Policy: core.DAMC(), Seed: 9, Probe: p}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Runtime {
		if err := rt.Start(probeGraph(600)); err != nil {
			t.Fatal(err)
		}
		rt.Engine().Run()
		return rt
	}
	first := run().Sched(rt.Makespan())
	if err := rt.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	second := run().Sched(rt.Makespan())

	if first == second {
		t.Fatal("rendered Sched aggregates alias the pooled probe")
	}
	if first.Span != second.Span || first.TotalSteals() != second.TotalSteals() ||
		first.QueueSamples != second.QueueSamples || first.PTTSamples != second.PTTSamples {
		t.Fatalf("reused probe leaked state across Reset:\nfirst:  span=%v steals=%d qs=%d ptt=%d\nsecond: span=%v steals=%d qs=%d ptt=%d",
			first.Span, first.TotalSteals(), first.QueueSamples, first.PTTSamples,
			second.Span, second.TotalSteals(), second.QueueSamples, second.PTTSamples)
	}
	for i := range first.Busy {
		if first.Busy[i] != second.Busy[i] || first.Idle[i] != second.Idle[i] {
			t.Fatalf("core %d telemetry diverged across reuse", i)
		}
	}
}
