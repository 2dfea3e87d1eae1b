package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// getBody fetches a URL and returns status and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// The simtrace endpoint must serve a valid Chrome trace of any plan cell
// of a finished job: task ("X") slices plus counter ("C") lanes, rendered
// by deterministic re-execution and cached by cell hash.
func TestSimTraceEndpoint(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})

	spec := tinySpec(33)
	specJSON, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	st, code := postJob(t, srv.URL, fmt.Sprintf(`{"spec": %s}`, specJSON))
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	final := pollDone(t, srv.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("job finished as %q: %s", final.State, final.Error)
	}

	code, body := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/cells/0/simtrace")
	if code != http.StatusOK {
		t.Fatalf("GET simtrace: status %d: %s", code, body)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("simtrace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	counterLanes := map[string]bool{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph == "C" {
			counterLanes[ev["name"].(string)] = true
		}
	}
	if phases["X"] == 0 || phases["C"] == 0 {
		t.Fatalf("simtrace phases %v: want task (X) and counter (C) events", phases)
	}
	for _, lane := range []string{"queue depth", "ready tasks", "core util"} {
		if !counterLanes[lane] {
			t.Fatalf("simtrace has no %q counter lane (lanes: %v)", lane, counterLanes)
		}
	}

	// A second fetch is served from the render cache, byte-identical.
	renders := m.mx.simtraceRenders.Value()
	if renders != 1 {
		t.Fatalf("renders = %d after first fetch, want 1", renders)
	}
	code, again := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/cells/0/simtrace")
	if code != http.StatusOK || string(again) != string(body) {
		t.Fatalf("cached fetch: status %d, identical=%t", code, string(again) == string(body))
	}
	if got := m.mx.simtraceRenders.Value(); got != renders {
		t.Fatalf("cached fetch re-rendered (renders %d -> %d)", renders, got)
	}

	// Error mapping: unknown job is 404, an out-of-grid cell is 400.
	if code, _ := getBody(t, srv.URL+"/v1/jobs/nope/cells/0/simtrace"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	if code, _ := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/cells/9999/simtrace"); code != http.StatusBadRequest {
		t.Fatalf("bad cell index: status %d, want 400", code)
	}
	if code, _ := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/cells/x/simtrace"); code != http.StatusBadRequest {
		t.Fatalf("non-numeric cell index: status %d, want 400", code)
	}
}

// Distributed Heat cells are explainable like every other cell: their
// simtrace carries both nodes' task slices and the probe's counter lanes.
func TestSimTraceDistributedHeat(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	spec := `{"spec": {"name": "heat-trace", "platform": {"preset": "haswell-node"},
		"workload": {"kind": "heatdist", "heat": {"nodes": 2, "iters": 4, "blocks_per_node": 12}},
		"policies": ["DAM-C"], "seed": 5}}`
	st, code := postJob(t, srv.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if final := pollDone(t, srv.URL, st.ID); final.State != "done" {
		t.Fatalf("job finished as %q: %s", final.State, final.Error)
	}
	code, body := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/cells/0/simtrace")
	if code != http.StatusOK {
		t.Fatalf("GET simtrace: status %d: %s", code, body)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("simtrace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	nodes := map[string]bool{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if name, _ := ev["name"].(string); ph == "X" && len(name) > 2 {
			nodes[name[:2]] = true
		}
	}
	if phases["X"] == 0 || phases["C"] == 0 {
		t.Fatalf("simtrace phases %v: want task (X) and counter (C) events", phases)
	}
	if !nodes["n0"] || !nodes["n1"] {
		t.Fatalf("simtrace task slices cover nodes %v, want n0 and n1", nodes)
	}
}

// Sim-level gauges ride /metrics: after a job, the node reports the
// simulated task/steal/dispatch totals of the cells it banked.
func TestSimMetricsExposed(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	j, _, err := m.Submit(tinySpec(34))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if m.mx.simTasks.Value() == 0 {
		t.Fatal("asymd_sim_tasks_total is zero after a finished job")
	}
	code, body := getBody(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	for _, name := range []string{
		"asymd_sim_tasks_total", "asymd_sim_steals_total", "asymd_sim_dispatches_total",
		"asymd_sim_makespan_seconds", "asymd_sim_core_utilization", "asymd_simtrace_renders_total",
	} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics is missing %s", name)
		}
	}
}
