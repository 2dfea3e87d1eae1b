package service

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynasym/internal/core"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// overlapSpec returns tinySpec's shape with a configurable sweep axis.
func overlapSpec(seed uint64, points ...int) scenario.Spec {
	s := tinySpec(seed)
	s.Points = scenario.ParallelismPoints(points...)
	return s
}

// TestPartialOverlapReusesCells is the cell-cache acceptance test: after
// spec A runs, submitting A plus one extra sweep point must simulate only
// the new cells — and still merge to the exact fingerprint a from-scratch
// run produces.
func TestPartialOverlapReusesCells(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	a := overlapSpec(31, 2, 4)
	ja, _, err := m.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ja)
	cellsA := int64(len(a.Policies) * 2) // 2 policies × 2 points × 1 rep
	if got := m.CellRuns(); got != cellsA {
		t.Fatalf("cold run simulated %d cells, want %d", got, cellsA)
	}

	b := overlapSpec(31, 2, 4, 8)
	jb, existing, err := m.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	if existing {
		t.Fatal("extended spec was absorbed by the old job despite a new point")
	}
	waitDone(t, jb)
	delta := int64(len(b.Policies)) // one new point × 2 policies
	if got := m.CellRuns(); got != cellsA+delta {
		t.Errorf("overlap resubmit brought cell runs to %d, want %d (only the delta simulates)", got, cellsA+delta)
	}
	st := jb.Snapshot()
	if st.CellHits != cellsA || st.CellMisses != delta {
		t.Errorf("job counted %d hits / %d misses, want %d / %d", st.CellHits, st.CellMisses, cellsA, delta)
	}

	// The assembled result must be bit-identical to a from-scratch run.
	_, fp, _, err := jb.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(overlapSpec(31, 2, 4, 8)); fp != direct.Fingerprint() {
		t.Error("cell-assembled fingerprint differs from a from-scratch run")
	}

	stats := m.Stats()
	if stats.CellHits != cellsA || stats.CellMisses != cellsA+delta {
		t.Errorf("stats count %d hits / %d misses, want %d / %d", stats.CellHits, stats.CellMisses, cellsA, cellsA+delta)
	}
	// Stats and /metrics read the same counters, so they must agree.
	body := scrape(t, srv.URL)
	for series, want := range map[string]int64{
		"asymd_cell_cache_hits_total":   stats.CellHits,
		"asymd_cell_cache_misses_total": stats.CellMisses,
		"asymd_cell_runs_total":         stats.CellRuns,
	} {
		if got := metricValue(t, body, series); got != float64(want) {
			t.Errorf("%s = %v, Stats says %d", series, got, want)
		}
	}
}

// TestPaperFamiliesShareCells: Figure 5 is Figure 4a's P=2 column read
// out differently, so after fig4a runs, fig5 must be served entirely from
// the cell cache — one cell per Table-1 policy, nothing simulated.
func TestPaperFamiliesShareCells(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	ja, _, err := m.SubmitFamily("fig4a", 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ja)
	jb, _, err := m.SubmitFamily("fig5", 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jb)
	if st := jb.Snapshot(); st.CellHits != 7 || st.CellMisses != 0 {
		t.Errorf("fig5 after fig4a: %d cell hits / %d misses, want 7 / 0", st.CellHits, st.CellMisses)
	}
}

// TestRemoteBackendFingerprint runs a job whose every shard executes on a
// peer node over POST /v1/shards, for every Table-1 policy at once, and
// requires the merged fingerprint to be bit-identical to a direct
// in-process run — metrics survive the wire exactly.
func TestRemoteBackendFingerprint(t *testing.T) {
	worker := NewManager(Config{Workers: 2})
	srv := httptest.NewServer(worker.Handler(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()

	coord := NewManager(Config{Workers: 2, ShardSize: 3})
	coord.setBackends(NewRemoteBackend(srv.URL, 0)) // no local fallback: every cell crosses the wire

	spec := scenario.Spec{
		Name: "remote-fingerprint",
		Workload: scenario.WorkloadSpec{Kind: scenario.Synthetic, Synthetic: workloads.SyntheticConfig{
			Kernel: workloads.MatMul, Tasks: 400, Parallelism: 4,
		}},
		Disturb:  []scenario.Disturbance{{Kind: scenario.Burst, Cluster: 1, Share: 0.4, BusyDur: 0.1, IdleDur: 0.2}},
		Policies: core.All(),
		Points:   scenario.ParallelismPoints(2, 4),
		Reps:     2,
		Seed:     42,
	}
	j, _, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if coord.CellRuns() != 0 {
		t.Errorf("coordinator simulated %d cells itself; all shards should have gone remote", coord.CellRuns())
	}
	if want := int64(len(core.All()) * 2 * 2); worker.CellRuns() != want {
		t.Errorf("worker simulated %d cells, want %d", worker.CellRuns(), want)
	}
	if direct := scenario.MustRun(spec); fp != direct.Fingerprint() {
		t.Error("remote-backend fingerprint differs from direct engine run")
	}

	// Resubmit under a different name: same cells, different job. The
	// coordinator's cell cache (fed by remote results) must serve all of it.
	spec2 := spec
	spec2.Name = "remote-fingerprint-rerun"
	runsBefore := worker.CellRuns()
	j2, _, err := coord.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if worker.CellRuns() != runsBefore {
		t.Error("renamed resubmit re-simulated cells despite a warm coordinator cell cache")
	}
	_, fp2, _, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 == fp {
		t.Error("renamed spec produced an identical fingerprint (name should differ)")
	}
}

// TestRemoteBackendIterStats sends a KMeans cell over the wire: its
// metrics carry per-iteration stats with dense per-place rows, the
// richest part of RunMetrics, and the fingerprint must still survive the
// binary frame's round trip bit-exactly.
func TestRemoteBackendIterStats(t *testing.T) {
	worker := NewManager(Config{Workers: 2})
	srv := httptest.NewServer(worker.Handler(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()
	coord := NewManager(Config{Workers: 1})
	coord.setBackends(NewRemoteBackend(srv.URL, 0))

	spec := scenario.Spec{
		Name: "remote-kmeans",
		Workload: scenario.WorkloadSpec{Kind: scenario.KMeans, KMeans: workloads.KMeansConfig{
			N: 4096, K: 4, Grains: 16, MaxIters: 3,
		}},
		Policies: []core.Policy{core.DAMP()},
		Seed:     9,
	}
	j, _, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	res, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells[0][0].Run().Iters) == 0 {
		t.Fatal("kmeans run carried no iteration stats; serialization test is vacuous")
	}
	if direct := scenario.MustRun(spec); fp != direct.Fingerprint() {
		t.Error("remote kmeans fingerprint differs from direct engine run")
	}
}

// flakyBackend fails every Execute with a transport-style error.
type flakyBackend struct{ calls atomic.Int64 }

func (f *flakyBackend) Name() string { return "flaky" }
func (f *flakyBackend) Execute(context.Context, *scenario.Plan, []scenario.CellJob) ([]CellResult, error) {
	f.calls.Add(1)
	return nil, errors.New("connection refused")
}

// TestShardFailoverToAnotherBackend: a shard whose round-robin home
// backend fails must complete on another backend, invisibly to the caller.
func TestShardFailoverToAnotherBackend(t *testing.T) {
	m := NewManager(Config{Workers: 2, ShardSize: 1})
	flaky := &flakyBackend{}
	m.setBackends(flaky, m.local) // every even shard homes on the broken backend
	j, _, err := m.Submit(tinySpec(33))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job finished %v (%v), want done despite the failing backend", j.State(), j.Snapshot().Error)
	}
	if flaky.calls.Load() == 0 {
		t.Error("failing backend was never tried; test is vacuous")
	}
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(tinySpec(33)); fp != direct.Fingerprint() {
		t.Error("failover changed the fingerprint")
	}
}

// stuckBackend accepts a shard and never returns until its context is
// canceled — a wedged-but-connected peer.
type stuckBackend struct{}

func (stuckBackend) Name() string { return "stuck" }
func (stuckBackend) Execute(ctx context.Context, _ *scenario.Plan, _ []scenario.CellJob) ([]CellResult, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestShardTimeoutFailover: a wedged non-local backend must be cut off by
// ShardTimeout and the shard completed elsewhere — without the timeout,
// the job (and its admission slot) would hang forever.
func TestShardTimeoutFailover(t *testing.T) {
	m := NewManager(Config{Workers: 2, ShardSize: 1, ShardTimeout: 50 * time.Millisecond})
	m.setBackends(stuckBackend{}, m.local)
	j, _, err := m.Submit(tinySpec(37))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job finished %v (%v), want done via failover from the stuck backend", j.State(), j.Snapshot().Error)
	}
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(tinySpec(37)); fp != direct.Fingerprint() {
		t.Error("timeout failover changed the fingerprint")
	}
}

// TestAllBackendsFailing: when no backend can take a shard even after the
// whole retry budget, the job fails with an error naming the exhaustion.
func TestAllBackendsFailing(t *testing.T) {
	m := NewManager(Config{Workers: 1, RetryBackoff: -1})
	m.setBackends(&flakyBackend{})
	j, _, err := m.Submit(tinySpec(34))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateFailed {
		t.Fatalf("job finished %v, want failed", j.State())
	}
	if _, _, _, err := j.Result(); err == nil || !strings.Contains(err.Error(), "failed after 3 rounds over 1 backends") {
		t.Errorf("error %v does not name backend exhaustion", err)
	}
}

// TestConcurrentOverlapSharesInFlightCells: a job whose cells another
// running job is already simulating must subscribe to those cells, not
// re-simulate them — in-flight dedupe at cell granularity.
func TestConcurrentOverlapSharesInFlightCells(t *testing.T) {
	m := NewManager(Config{Workers: 4, ShardSize: 1})
	realRun := m.local.runCell
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	m.local.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		started <- struct{}{}
		<-release
		return realRun(p, st, c)
	}

	a := overlapSpec(38, 2, 4) // 2 policies × 2 points = 4 cells
	ja, _, err := m.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	<-started // job A has claimed its cells and begun simulating

	b := overlapSpec(38, 2, 4, 8) // shares A's 4 cells, adds 2
	jb, _, err := m.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	// Give B time to probe and subscribe while A's cells are pending,
	// then let every simulation proceed.
	time.Sleep(50 * time.Millisecond)
	close(release)
	waitDone(t, ja)
	waitDone(t, jb)
	if ja.State() != StateDone || jb.State() != StateDone {
		t.Fatalf("jobs finished %v/%v: %v %v", ja.State(), jb.State(), ja.Snapshot().Error, jb.Snapshot().Error)
	}
	if got, want := m.CellRuns(), int64(6); got != want {
		t.Errorf("concurrent overlapping jobs simulated %d cells, want %d (4 shared + 2 delta)", got, want)
	}
	_, fp, _, err := jb.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(overlapSpec(38, 2, 4, 8)); fp != direct.Fingerprint() {
		t.Error("in-flight-shared cells produced a different fingerprint")
	}
}

// TestFailedJobBanksSucceededCells: a job that fails on one cell must
// still cache the cells that finished — the sibling work survives the
// failure and serves later jobs.
func TestFailedJobBanksSucceededCells(t *testing.T) {
	m := NewManager(Config{Workers: 2, ShardSize: 1})
	realRun := m.local.runCell
	// The P8 cells fail — but only after every good cell finished, so the
	// banked count below is deterministic despite dispatch canceling
	// outstanding shards on the first failure.
	var goodDone atomic.Int64
	m.local.runCell = func(p *scenario.Plan, st *scenario.CellState, c scenario.CellJob) (scenario.RunMetrics, error) {
		if p.Spec.Points[c.Point].Parallelism == 8 {
			for goodDone.Load() < 4 {
				time.Sleep(time.Millisecond)
			}
			return scenario.RunMetrics{}, errors.New("injected cell failure")
		}
		rm, err := realRun(p, st, c)
		goodDone.Add(1)
		return rm, err
	}
	j, _, err := m.Submit(overlapSpec(36, 2, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateFailed {
		t.Fatalf("job finished %v, want failed", j.State())
	}
	m.local.runCell = realRun

	// The P2/P4 cells simulated before the failure must now be cache hits.
	j2, _, err := m.Submit(overlapSpec(36, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("follow-up job finished %v: %v", j2.State(), j2.Snapshot().Error)
	}
	st := j2.Snapshot()
	if st.CellHits != 4 || st.CellMisses != 0 {
		t.Errorf("follow-up job had %d hits / %d misses, want 4 / 0 (failed job must bank finished cells)",
			st.CellHits, st.CellMisses)
	}
	_, fp, _, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(overlapSpec(36, 2, 4)); fp != direct.Fingerprint() {
		t.Error("banked cells produced a different fingerprint")
	}
}

// TestDuplicatePointsShareOneSimulation: two points with identical
// parameters under different labels are one cell hash — the grid fills
// both positions from a single simulation.
func TestDuplicatePointsShareOneSimulation(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	s := tinySpec(35)
	s.Points = []scenario.Point{
		{Label: "left", Parallelism: 4},
		{Label: "right", Parallelism: 4},
	}
	j, _, err := m.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if want := int64(len(s.Policies)); m.CellRuns() != want {
		t.Errorf("simulated %d cells for twin points, want %d", m.CellRuns(), want)
	}
	st := j.Snapshot()
	if st.CellsDone != st.CellsTotal || st.CellsTotal != int64(2*len(s.Policies)) {
		t.Errorf("progress %d/%d, want %d/%d", st.CellsDone, st.CellsTotal, 2*len(s.Policies), 2*len(s.Policies))
	}
	// Hits and misses partition the grid: a duplicate-hash cell must not
	// be counted as a miss at claim time AND a hit when it resolves.
	if st.CellHits+st.CellMisses != st.CellsTotal {
		t.Errorf("cell_hits %d + cell_misses %d != cells_total %d", st.CellHits, st.CellMisses, st.CellsTotal)
	}
	res, _, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	l, r := res.Cell(res.Policies[0], "left").Run(), res.Cell(res.Policies[0], "right").Run()
	if l.Throughput != r.Throughput || l.Makespan != r.Makespan {
		t.Error("twin points diverged")
	}
}

// TestWedgedHTTPPeerShardTimeout: a real HTTP peer that accepts the
// connection but never responds is the nastiest failure mode — no
// transport error ever arrives. ShardTimeout must cut the attempt off as
// a retryable failure and the shard must fail over to the local pool.
func TestWedgedHTTPPeerShardTimeout(t *testing.T) {
	unblock := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // accept the shard, then never answer
		<-unblock
	}))
	defer wedged.Close()
	defer close(unblock) // runs before Close, releasing the held requests

	m := NewManager(Config{Workers: 2, ShardTimeout: 100 * time.Millisecond, RetryBackoff: -1})
	m.setBackends(NewRemoteBackend(wedged.URL, 0), m.local)
	start := time.Now()
	j, _, err := m.Submit(tinySpec(44))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job finished %v (%s), want done via local failover", j.State(), j.Snapshot().Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("failover took %v; the wedged peer was not cut off by ShardTimeout", elapsed)
	}
	_, fp, _, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if direct := scenario.MustRun(tinySpec(44)); fp != direct.Fingerprint() {
		t.Error("failover fingerprint differs from direct run")
	}
	h := m.handles[0]
	h.mu.Lock()
	lastErr := h.lastErr
	h.mu.Unlock()
	if lastErr == nil || !errors.Is(lastErr, context.DeadlineExceeded) {
		t.Errorf("wedged peer recorded %v, want a context.DeadlineExceeded chain", lastErr)
	}
}
