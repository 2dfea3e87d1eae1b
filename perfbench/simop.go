package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"time"

	"dynasym/internal/core"
	"dynasym/internal/dag"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/scenario"
	"dynasym/internal/service"
	"dynasym/internal/sim"
	"dynasym/internal/simrt"
	"dynasym/internal/workloads"
)

// opTimeout bounds one op; a run must end well within three minutes.
const opTimeout = 60 * time.Second

// simOp is one finished simulated op.
type simOp struct {
	spec        scenario.Spec
	index       int
	ms          float64
	cells       int
	speedup     float64
	fingerprint string
	resultBytes int
	root        int // the op's span id when traced
	status      service.Status
}

// submission is an op's request, encoded before the op's clock starts:
// generating inputs is the client's work, not the system's.
type submission struct {
	spec scenario.Spec
	body []byte
	hash string
}

func newSubmission(spec scenario.Spec) (submission, error) {
	canon, err := spec.CanonicalJSON()
	if err != nil {
		return submission{}, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return submission{}, err
	}
	body, err := json.Marshal(service.SubmitRequest{Spec: canon})
	if err != nil {
		return submission{}, err
	}
	return submission{spec: spec, body: body, hash: hash}, nil
}

// runSimOp is one closed-loop op: POST the spec to the coordinator, wait
// for the job in process (no poll quantization), fetch and decode the
// result, and check it. With a recorder every call gets a span.
func runSimOp(c *cluster, rec *recorder, i int, sub submission) (simOp, error) {
	op := simOp{spec: sub.spec, index: i}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t0 := time.Now()
	op.root = rec.begin("op", 0, i)

	sp := rec.begin("service.submit", op.root, i)
	var st service.Status
	code, _, err := call(ctx, c.client, http.MethodPost, c.coordURL+"/v1/jobs", sub.body, &st)
	rec.end(sp)
	if err != nil {
		return op, err
	}
	if code != http.StatusAccepted {
		return op, fmt.Errorf("submit: status %d, want %d (a fresh job)", code, http.StatusAccepted)
	}
	if st.ID != sub.hash {
		return op, fmt.Errorf("submit: job id %.12s, want the spec hash %.12s", st.ID, sub.hash)
	}

	sp = rec.begin("service.wait", op.root, i)
	job, ok := c.coord.Job(st.ID)
	if !ok {
		return op, fmt.Errorf("job %.12s unknown to the coordinator", st.ID)
	}
	err = job.Wait(ctx)
	rec.end(sp)
	if err != nil {
		return op, err
	}

	sp = rec.begin("service.result", op.root, i)
	code, body, err := call(ctx, c.client, http.MethodGet, c.coordURL+"/v1/results/"+st.ID, nil, nil)
	rec.end(sp)
	if err != nil {
		return op, err
	}
	if code != http.StatusOK {
		return op, fmt.Errorf("result: status %d: %s", code, bytes.TrimSpace(body))
	}
	op.resultBytes = len(body)

	sp = rec.begin("bench.decode", op.root, i)
	var rr service.ResultResponse
	err = json.Unmarshal(body, &rr)
	rec.end(sp)
	if err != nil {
		return op, fmt.Errorf("decode result: %w", err)
	}

	sp = rec.begin("bench.check", op.root, i)
	err = checkResult(sub, rr)
	if err == nil {
		op.speedup, err = speedup(rr.Policies, rr.Throughputs)
	}
	rec.end(sp)
	rec.end(op.root)
	op.ms = ms(time.Since(t0))
	if rec != nil { // the span's own length, so that self times add up to it
		s := rec.get(op.root)
		op.ms = ms(s.end - s.start)
	}
	if err != nil {
		return op, err
	}
	op.cells = len(rr.Policies) * len(rr.Points) * max(1, sub.spec.Reps)
	op.fingerprint = rr.Fingerprint
	op.status = job.Snapshot()
	return op, nil
}

// call makes one HTTP request and reads the whole response body. When
// out is non-nil the body is decoded into it on a 2xx status.
func call(ctx context.Context, client *http.Client, method, url string, body []byte, out any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, data, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, data, nil
}

// checkResult checks that a result answers the submitted grid: same
// hash, name and axes, a positive finite throughput in every cell, and a
// fingerprint for the named scenario.
func checkResult(sub submission, rr service.ResultResponse) error {
	s := sub.spec
	if rr.Hash != sub.hash {
		return fmt.Errorf("result hash %.12s, want %.12s", rr.Hash, sub.hash)
	}
	if rr.Name != s.Name {
		return fmt.Errorf("result names scenario %q, want %q", rr.Name, s.Name)
	}
	pols := make([]string, len(s.Policies))
	for i, p := range s.Policies {
		pols[i] = p.Name()
	}
	if !slices.Equal(rr.Policies, pols) {
		return fmt.Errorf("result policies %v, want %v", rr.Policies, pols)
	}
	labels := make([]string, len(s.Points))
	for i, p := range s.Points {
		labels[i] = p.Label
	}
	if !slices.Equal(rr.Points, labels) {
		return fmt.Errorf("result points %v, want %v", rr.Points, labels)
	}
	if len(rr.Throughputs) != len(pols) {
		return fmt.Errorf("result has %d throughput rows, want %d", len(rr.Throughputs), len(pols))
	}
	for pi, row := range rr.Throughputs {
		if len(row) != len(labels) {
			return fmt.Errorf("result row %s has %d points, want %d", pols[pi], len(row), len(labels))
		}
		for xi, v := range row {
			if !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("result %s at %s: throughput %v", pols[pi], labels[xi], v)
			}
		}
	}
	if !strings.HasPrefix(rr.Fingerprint, "scenario="+s.Name+" ") {
		return fmt.Errorf("result fingerprint does not describe scenario %q", s.Name)
	}
	return nil
}

// speedup returns DAM-C's mean simulated throughput over the grid's
// points divided by RWS's.
func speedup(policies []string, tput [][]float64) (float64, error) {
	d, r := slices.Index(policies, "DAM-C"), slices.Index(policies, "RWS")
	if d < 0 || r < 0 {
		return 0, fmt.Errorf("grid lacks DAM-C or RWS: %v", policies)
	}
	return mean(tput[d]) / mean(tput[r]), nil
}

// referenceFingerprint runs the spec in process with scenario.Run.
func referenceFingerprint(spec scenario.Spec) (string, error) {
	res, err := scenario.Run(spec)
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	return res.Fingerprint(), nil
}

// traceOp reads the service's own stage spans for a finished traced op
// back from GET /v1/jobs/{id}/trace, grafts them under the op's span and
// records the service-stage samples.
func traceOp(c *cluster, rec *recorder, op simOp, s samples) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	sp := rec.begin("bench.fetch_trace", 0, op.index)
	code, body, err := call(ctx, c.client, http.MethodGet, c.coordURL+"/v1/jobs/"+op.status.ID+"/trace", nil, nil)
	rec.end(sp)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("job trace: status %d", code)
	}
	jss, err := parseJobTrace(body)
	if err != nil {
		return err
	}
	created, err := time.Parse(time.RFC3339Nano, op.status.CreatedAt)
	if err != nil {
		return fmt.Errorf("job created_at: %w", err)
	}
	rec.graft(op.root, created.Sub(rec.origin), jss)

	sum := map[string]time.Duration{}
	var jobLane [][2]time.Duration
	for _, js := range jss {
		sum[js.spanName()] += js.end - js.start
		if js.lane == "job" {
			jobLane = append(jobLane, [2]time.Duration{js.start, js.end})
		}
	}
	for name, metric := range map[string]string{
		"service.queued": "service.queued_ms", "service.plan": "service.plan_ms",
		"service.dispatch": "service.dispatch_ms", "service.merge": "service.merge_ms",
		"wire.shard": "wire.shard_ms", "wire.transit": "wire.overhead_ms", "wire.serve": "wire.worker_serve_ms",
	} {
		s.add(metric, ms(sum[name]))
	}
	for _, sp := range rec.spans[op.root:] {
		if sp.parent != op.root {
			continue
		}
		switch sp.name {
		case "service.submit", "service.result":
			s.add(sp.name+"_ms", ms(sp.end-sp.start))
		case "service.wait":
			// From the job's creation until the benchmark saw it done,
			// which includes the fingerprint computed after the last span.
			total := sp.end - created.Sub(rec.origin)
			s.add("service.unspanned_ms", ms(max(0, total-union(jobLane))))
		}
	}
	s.add("service.result_bytes", float64(op.resultBytes))
	return nil
}

// replay re-runs an op's grid in process through the scenario layer's
// public steps — Validate, Hash, NewPlan, RunCellState per cell, Merge,
// Fingerprint, the steps scenario.Run takes, here on one goroutine — with
// a span around each, then runs one of its cells again directly on simrt
// (and, for generated DAGs, through dagio and a frozen dag graph). It
// returns the fingerprint, which must equal the service's.
func replay(rec *recorder, opID int, spec scenario.Spec, s samples, first bool, warn func(string)) (string, error) {
	root := rec.begin("replay", 0, opID)
	defer rec.end(root)
	timed := func(name string, f func() error) error {
		sp := rec.begin(name, root, opID)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		rec.end(sp)
		s.add(name+"_ms", ms(d))
		return err
	}
	if err := timed("scenario.validate", spec.Validate); err != nil {
		return "", err
	}
	if err := timed("scenario.hash", func() error { _, err := spec.Hash(); return err }); err != nil {
		return "", err
	}
	var plan *scenario.Plan
	if err := timed("scenario.newplan", func() (err error) { plan, err = scenario.NewPlan(spec); return err }); err != nil {
		return "", err
	}
	st := scenario.NewCellState()
	cells := make(map[string]scenario.RunMetrics, len(plan.Cells))
	var rest []float64
	for ci, c := range plan.Cells {
		sp := rec.begin("scenario.runcell", root, opID)
		t0 := time.Now()
		rm, err := plan.RunCellState(st, c)
		d := time.Since(t0)
		rec.end(sp)
		if err != nil {
			return "", err
		}
		cells[c.Hash] = rm
		if ci == 0 {
			s.add("scenario.runcell_first_ms", ms(d))
		} else {
			rest = append(rest, ms(d))
		}
	}
	s.add("scenario.runcell_ms", median(rest))
	var res *scenario.Result
	if err := timed("scenario.merge", func() (err error) { res, err = scenario.Merge(plan, cells); return err }); err != nil {
		return "", err
	}
	var fp string
	_ = timed("scenario.fingerprint", func() error { fp = res.Fingerprint(); return nil })
	s.add("scenario.fingerprint_bytes", float64(len(fp)))

	if err := directCell(rec, root, opID, plan, cells, s, first, warn); err != nil {
		return "", err
	}
	return fp, nil
}

// directCell runs DAM-C's cell at the grid's last point (repetition 0)
// directly on simrt with an engine of its own, to count the simulator's
// events, and reports how the run compares with the cell's RunCell
// metrics. Exact counts (events, steal success) come from the first op
// only, so that they repeat exactly for a seed.
func directCell(rec *recorder, root, opID int, plan *scenario.Plan, cells map[string]scenario.RunMetrics,
	s samples, first bool, warn func(string)) error {
	spec := plan.Spec
	pi := slices.IndexFunc(spec.Policies, func(p core.Policy) bool { return p.Name() == "DAM-C" })
	if pi < 0 {
		return fmt.Errorf("grid lacks DAM-C")
	}
	c, err := plan.Cell(pi, len(spec.Points)-1, 0)
	if err != nil {
		return err
	}
	pt := spec.Points[c.Point]
	topo, err := spec.Platform.Build()
	if err != nil {
		return err
	}
	model := machine.New(topo)
	for _, d := range spec.Disturb {
		if d.Kind != scenario.Burst {
			return fmt.Errorf("direct simrt run: disturbance %v not supported", d.Kind)
		}
		cores := d.Cores
		if len(cores) == 0 {
			cores = topo.CoresOf(d.Cluster)
		}
		interfere.BurstCPU(model, cores, d.Share, d.BusyDur, d.IdleDur, d.Phase0, d.PhaseStep)
	}

	var g *dag.Graph
	var frozen *dag.Frozen
	switch spec.Workload.Kind {
	case scenario.Synthetic:
		cfg := spec.Workload.Synthetic
		cfg.Parallelism = pt.Parallelism
		g = workloads.BuildSynthetic(cfg)
	case scenario.DAGGen:
		cfg := spec.Workload.DAGGen
		cfg.Tiles = pt.Tile
		sp := rec.begin("dagio.generate", root, opID)
		t0 := time.Now()
		gs, err := cfg.Graph()
		if err == nil {
			g, err = gs.Build()
		}
		d := time.Since(t0)
		rec.end(sp)
		if err != nil {
			return err
		}
		s.add("dagio.generate_ms", ms(d))
		if frozen, err = g.Freeze(); err != nil {
			return err
		}
		g = frozen.NewGraph()
	default:
		return fmt.Errorf("direct simrt run: workload %v not supported", spec.Workload.Kind)
	}

	alpha := spec.Alpha
	if pt.Alpha > 0 {
		alpha = pt.Alpha
	}
	eng := sim.New()
	rt, err := simrt.New(simrt.Config{Topo: topo, Model: model, Policy: spec.Policies[pi],
		Alpha: alpha, Seed: c.Seed, Engine: eng})
	if err != nil {
		return err
	}
	sp := rec.begin("simrt.run", root, opID)
	t0 := time.Now()
	coll, err := rt.Run(g)
	d := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return err
	}
	want := cells[c.Hash]
	if coll.TasksDone() != want.TasksDone || coll.Makespan() != want.Makespan {
		warn(fmt.Sprintf("direct simrt run of %s differs from RunCell (tasks %d vs %d, makespan %v vs %v)",
			plan.CellLabel(c), coll.TasksDone(), want.TasksDone, coll.Makespan(), want.Makespan))
	}
	s.add("simrt.ns_per_event", float64(d.Nanoseconds())/float64(max(1, eng.Processed)))
	if first {
		var steals, failed int64
		for _, cs := range rt.CoreStats() {
			steals += cs.Steals
			failed += cs.FailedSteals
		}
		s.add("simrt.events", float64(eng.Processed))
		s.add("simrt.steal_success_ratio", ratio(float64(steals), float64(steals+failed)))
	}
	if frozen != nil {
		sp := rec.begin("dag.reset", root, opID)
		t0 := time.Now()
		err := frozen.Reset(g)
		d := time.Since(t0)
		rec.end(sp)
		if err != nil {
			return err
		}
		s.add("dag.reset_us", float64(d)/float64(time.Microsecond))
	}
	return nil
}
