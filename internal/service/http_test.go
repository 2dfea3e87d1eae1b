package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dynasym/internal/scenario"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := httptest.NewServer(m.Handler(logger))
	t.Cleanup(srv.Close)
	return m, srv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJob(t *testing.T, url string, body string) (Status, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("POST /v1/jobs: decode %q: %v", raw, err)
		}
	}
	return st, resp.StatusCode
}

func pollDone(t *testing.T, url, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if code := getJSON(t, url+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

// TestHTTPEndToEnd is the acceptance check: submit over HTTP, poll to
// done, fetch the result, and compare the fingerprint byte-for-byte with
// a direct engine run of the same spec; then resubmit and verify the
// cache answers without another engine run.
func TestHTTPEndToEnd(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})

	spec := tinySpec(21)
	specJSON, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"spec": %s}`, specJSON)

	st, code := postJob(t, srv.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("first POST: status %d, want 202", code)
	}
	if st.ID == "" {
		t.Fatal("no job id")
	}
	wantHash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != wantHash {
		t.Errorf("job id %s, want the spec hash %s", st.ID, wantHash)
	}

	final := pollDone(t, srv.URL, st.ID)
	if final.State != "done" {
		t.Fatalf("job finished as %q: %s", final.State, final.Error)
	}
	if final.CellsDone != final.CellsTotal || final.CellsTotal == 0 {
		t.Errorf("progress %d/%d at done", final.CellsDone, final.CellsTotal)
	}

	var res ResultResponse
	if code := getJSON(t, srv.URL+"/v1/results/"+st.ID, &res); code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}
	direct := scenario.MustRun(tinySpec(21))
	if res.Fingerprint != direct.Fingerprint() {
		t.Errorf("HTTP fingerprint differs from direct engine run")
	}
	if len(res.Throughputs) != 2 || len(res.Throughputs[0]) != 2 {
		t.Errorf("throughput grid %dx?, want 2x2", len(res.Throughputs))
	}

	// Resubmit: served from cache, no new engine run.
	st2, code := postJob(t, srv.URL, body)
	if code != http.StatusOK {
		t.Errorf("cached POST: status %d, want 200", code)
	}
	if st2.State != "done" {
		t.Errorf("cached POST state %q, want done", st2.State)
	}
	if got := m.EngineRuns(); got != 1 {
		t.Errorf("engine ran %d times, want 1", got)
	}
}

// TestHTTPConcurrentIdenticalPosts checks N concurrent identical POSTs
// collapse to one job id and one engine run over the wire.
func TestHTTPConcurrentIdenticalPosts(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	spec := tinySpec(22)
	sj, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"spec": %s}`, sj)

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code := postJob(t, srv.URL, body)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("POST %d: status %d", i, code)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("POST %d got job %s, POST 0 got %s", i, ids[i], ids[0])
		}
	}
	pollDone(t, srv.URL, ids[0])
	if got := m.EngineRuns(); got != 1 {
		t.Errorf("engine ran %d times for %d identical POSTs, want 1", got, n)
	}
	// All N callers fetch the one fingerprint.
	fps := map[string]bool{}
	for i := 0; i < n; i++ {
		var res ResultResponse
		if code := getJSON(t, srv.URL+"/v1/results/"+ids[i], &res); code != http.StatusOK {
			t.Fatalf("GET result %d: status %d", i, code)
		}
		fps[res.Fingerprint] = true
	}
	if len(fps) != 1 {
		t.Errorf("%d distinct fingerprints, want 1", len(fps))
	}
}

// TestHTTPFamilySubmit submits registered families by name, including a
// paper figure whose spec runs its own calibration (Figure 9a).
func TestHTTPFamilySubmit(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	for _, tc := range []struct {
		family string
		scale  float64
	}{{"burst-sweep", 0.001}, {"fig9a", 0.05}} {
		st, code := postJob(t, srv.URL, fmt.Sprintf(`{"family": %q, "scale": %v}`, tc.family, tc.scale))
		if code != http.StatusAccepted {
			t.Fatalf("POST %s: status %d", tc.family, code)
		}
		final := pollDone(t, srv.URL, st.ID)
		if final.State != "done" {
			t.Fatalf("%s job finished as %q: %s", tc.family, final.State, final.Error)
		}
		var res ResultResponse
		if code := getJSON(t, srv.URL+"/v1/results/"+st.ID, &res); code != http.StatusOK {
			t.Fatalf("GET %s result: status %d", tc.family, code)
		}
		if res.Name != tc.family || res.Fingerprint == "" {
			t.Errorf("%s result name=%q fingerprint empty=%v", tc.family, res.Name, res.Fingerprint == "")
		}
	}
}

// TestHTTPRejectsBadScale: a family scale outside [0, 1] is a 400 whose
// error names the accepted range, never a silent full-scale run.
func TestHTTPRejectsBadScale(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	for _, scale := range []string{"-0.5", "2", "1e400"} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"family": "burst-sweep", "scale": `+scale+`}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("scale %s: status %d, want 400", scale, resp.StatusCode)
		}
		if scale != "1e400" && !strings.Contains(string(body), "[0, 1]") {
			t.Errorf("scale %s: error %s does not name the range", scale, body)
		}
	}
}

// TestHTTPErrors covers the 4xx surface.
func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"empty":          {`{}`, http.StatusBadRequest},
		"both":           {`{"family": "burst-sweep", "spec": {"policies": ["RWS"]}}`, http.StatusBadRequest},
		"unknown family": {`{"family": "nope"}`, http.StatusBadRequest},
		"bad spec":       {`{"spec": {"workload": {"kind": "synthetic"}, "policies": ["SJF"]}}`, http.StatusBadRequest},
		"invalid spec":   {`{"spec": {"workload": {"kind": "synthetic"}, "policies": []}}`, http.StatusBadRequest},
		"unknown field":  {`{"famly": "burst-sweep"}`, http.StatusBadRequest},
		"not json":       {`hello`, http.StatusBadRequest},
		// An interconnect the network model cannot build must be refused
		// before any worker runs a cell: simnet.New panics on it.
		"negative latency":   {`{"spec": {"workload": {"kind": "heatdist"}, "policies": ["DAM-C"], "latency": -1}}`, http.StatusBadRequest},
		"negative bandwidth": {`{"spec": {"workload": {"kind": "heatdist"}, "policies": ["DAM-C"], "bandwidth": -5}}`, http.StatusBadRequest},
	} {
		_, code := postJob(t, srv.URL, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", name, code, tc.want)
		}
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/v1/results/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", code)
	}
}

// TestHTTPHealthzAndFamilies checks the discovery endpoints.
func TestHTTPHealthzAndFamilies(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 3, CacheSize: 7})
	var health struct {
		OK    bool  `json:"ok"`
		Stats Stats `json:"stats"`
	}
	if code := getJSON(t, srv.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if !health.OK || health.Stats.Workers != 3 || health.Stats.CacheSize != 7 {
		t.Errorf("healthz = %+v", health)
	}
	var fams []FamilyInfo
	if code := getJSON(t, srv.URL+"/v1/families", &fams); code != http.StatusOK {
		t.Fatalf("families status %d", code)
	}
	// 8 extension families plus 23 paper figures and ablations.
	if len(fams) != len(scenario.Names()) || len(fams) != 31 {
		t.Fatalf("%d families, want %d (registry) and 31", len(fams), len(scenario.Names()))
	}
	for _, f := range fams {
		if f.Name == "" || f.Desc == "" {
			t.Errorf("family %+v missing name or desc", f)
		}
	}
}

// TestHTTPHealthzReportsPeerHealth: /v1/healthz exposes each remote
// peer's breaker state, so an operator can see a down worker (and when
// it will be re-probed) without grepping logs.
func TestHTTPHealthzReportsPeerHealth(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1, Peers: []string{"http://peer.invalid:7"}, FailThreshold: 3})
	h := m.handles[1] // handle 0 is the local pool
	for i := 0; i < 3; i++ {
		m.report(h, errors.New("dial tcp: connection refused"))
	}
	var health struct {
		OK    bool         `json:"ok"`
		Peers []PeerStatus `json:"peers"`
	}
	if code := getJSON(t, srv.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if len(health.Peers) != 1 {
		t.Fatalf("healthz lists %d peers, want 1: %+v", len(health.Peers), health.Peers)
	}
	p := health.Peers[0]
	if p.Peer != "peer http://peer.invalid:7" {
		t.Errorf("peer name %q", p.Peer)
	}
	if p.State != "down" || p.ConsecutiveFails != 3 {
		t.Errorf("peer reported %s after %d failures, want down after 3", p.State, p.ConsecutiveFails)
	}
	if !strings.Contains(p.LastError, "connection refused") {
		t.Errorf("last_error %q does not carry the failure cause", p.LastError)
	}
	if p.NextProbeSec <= 0 {
		t.Errorf("down peer advertises next_probe_sec %v, want a positive backoff", p.NextProbeSec)
	}
}

// TestHTTPJobsList covers GET /v1/jobs: every submitted job appears with
// state, hash and progress, in-flight entries before finished ones.
func TestHTTPJobsList(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	var ids []string
	for _, seed := range []uint64{41, 42} {
		sj, err := tinySpec(seed).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		st, code := postJob(t, srv.URL, fmt.Sprintf(`{"spec": %s}`, sj))
		if code != http.StatusAccepted {
			t.Fatalf("POST: status %d", code)
		}
		ids = append(ids, st.ID)
		pollDone(t, srv.URL, st.ID)
	}
	var list []Status
	if code := getJSON(t, srv.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d", code)
	}
	if len(list) != len(ids) {
		t.Fatalf("listing has %d jobs, want %d", len(list), len(ids))
	}
	seen := map[string]bool{}
	for _, st := range list {
		seen[st.ID] = true
		if st.State != "done" {
			t.Errorf("job %s listed as %q, want done", st.ID, st.State)
		}
		if st.CellsTotal == 0 || st.CellsDone != st.CellsTotal {
			t.Errorf("job %s listed with progress %d/%d", st.ID, st.CellsDone, st.CellsTotal)
		}
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("job %s missing from listing", id)
		}
	}
}

// TestHTTPFamiliesSorted pins the stable-response contract: families come
// back sorted by name.
func TestHTTPFamiliesSorted(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	var fams []FamilyInfo
	if code := getJSON(t, srv.URL+"/v1/families", &fams); code != http.StatusOK {
		t.Fatalf("families status %d", code)
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name >= fams[i].Name {
			t.Fatalf("families out of order: %q before %q", fams[i-1].Name, fams[i].Name)
		}
	}
}

// TestHTTPShardErrors covers the worker-facing endpoint's refusal paths:
// malformed frames are 400, frame-version and cell-hash skew are 409.
func TestHTTPShardErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	sj, err := tinySpec(51).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/shards", shardContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	frame := func(spec []byte, cells ...shardCell) []byte {
		t.Helper()
		b, err := encodeShardRequest(shardRequest{Spec: spec, Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	mismatch := frame(sj, shardCell{Hash: "deadbeef"})
	skewed := bytes.Clone(mismatch)
	skewed[len(shardMagic)]++
	for name, tc := range map[string]struct {
		body []byte
		want int
	}{
		"not a frame":   {[]byte(`hello`), http.StatusBadRequest},
		"truncated":     {mismatch[:len(mismatch)-3], http.StatusBadRequest},
		"no cells":      {frame(sj), http.StatusBadRequest},
		"bad spec":      {frame([]byte(`{"workload": {"kind": "synthetic"}, "policies": []}`), shardCell{Hash: "x"}), http.StatusBadRequest},
		"out of grid":   {frame(sj, shardCell{Policy: 9, Hash: "x"}), http.StatusBadRequest},
		"hash mismatch": {mismatch, http.StatusConflict},
		"version skew":  {skewed, http.StatusConflict},
	} {
		if code := post(tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d", name, code, tc.want)
		}
	}
}

// TestRequestLogging checks the middleware emits structured lines, that
// scrape endpoints (/v1/healthz, /metrics) are demoted to Debug so the
// default Info level stays quiet under monitoring polls, and that job
// lines carry the request ID.
func TestRequestLogging(t *testing.T) {
	m := NewManager(Config{})
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(syncWriter{&mu, &buf}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv := httptest.NewServer(m.Handler(logger))
	defer srv.Close()
	if code := getJSON(t, srv.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{"level=DEBUG", "method=GET", "path=/v1/healthz", "status=200", "dur_ms=", "request_id="} {
		if !strings.Contains(out, want) {
			t.Errorf("request log %q missing %q", out, want)
		}
	}

	// At the default Info level, scrapes are silent and job traffic is not.
	mu.Lock()
	buf.Reset()
	mu.Unlock()
	infoLogger := slog.New(slog.NewTextHandler(syncWriter{&mu, &buf}, nil))
	infoSrv := httptest.NewServer(m.Handler(infoLogger))
	defer infoSrv.Close()
	if code := getJSON(t, infoSrv.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if code := getJSON(t, infoSrv.URL+"/metrics", nil); code != http.StatusOK {
		t.Fatal("metrics failed")
	}
	getJSON(t, infoSrv.URL+"/v1/jobs", nil)
	mu.Lock()
	out = buf.String()
	mu.Unlock()
	if strings.Contains(out, "/v1/healthz") || strings.Contains(out, "/metrics") {
		t.Errorf("scrape endpoints logged at info: %q", out)
	}
	if !strings.Contains(out, "path=/v1/jobs") || !strings.Contains(out, "request_id=") {
		t.Errorf("job endpoint line missing from info log: %q", out)
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
