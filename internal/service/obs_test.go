package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scrape fetches GET /metrics and returns the exposition body.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts one series' sample from an exposition body;
// series is the full name including any label set.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad sample %q: %v", series, rest, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, body)
	return 0
}

// TestMetricsExposition runs one job end to end and checks the request
// path showed up in /metrics: lifecycle counters, cache traffic, pool
// sizing and the latency histograms.
func TestMetricsExposition(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8})
	j, _, err := m.Submit(tinySpec(71))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	// Resubmit: an absorbed submission must move the absorbed counter.
	if _, existing, err := m.Submit(tinySpec(71)); err != nil || !existing {
		t.Fatalf("resubmit: existing=%v err=%v", existing, err)
	}

	body := scrape(t, srv.URL)
	for series, want := range map[string]float64{
		"asymd_jobs_submitted_total": 2,
		"asymd_jobs_absorbed_total":  1,
		"asymd_jobs_done_total":      1,
		"asymd_jobs_failed_total":    0,
		"asymd_jobs_queued":          0,
		"asymd_jobs_running":         0,
		"asymd_pool_workers":         2,
		"asymd_pool_busy_workers":    0,
	} {
		if got := metricValue(t, body, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if runs := metricValue(t, body, "asymd_cell_runs_total"); runs <= 0 {
		t.Errorf("asymd_cell_runs_total = %v, want > 0", runs)
	}
	if misses := metricValue(t, body, "asymd_cell_cache_misses_total"); misses <= 0 {
		t.Errorf("asymd_cell_cache_misses_total = %v, want > 0", misses)
	}
	// Histogram plumbing: the job-run histogram saw exactly one job, the
	// +Inf bucket agrees, and the sum is positive.
	if n := metricValue(t, body, "asymd_job_run_seconds_count"); n != 1 {
		t.Errorf("asymd_job_run_seconds_count = %v, want 1", n)
	}
	if n := metricValue(t, body, `asymd_job_run_seconds_bucket{le="+Inf"}`); n != 1 {
		t.Errorf(`asymd_job_run_seconds +Inf bucket = %v, want 1`, n)
	}
	if s := metricValue(t, body, "asymd_job_run_seconds_sum"); s <= 0 {
		t.Errorf("asymd_job_run_seconds_sum = %v, want > 0", s)
	}
}

// TestMetricsDisabled checks Config.DisableMetrics removes the route.
func TestMetricsDisabled(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, DisableMetrics: true})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with metrics disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsScrapesRaceJobs hammers /metrics from several goroutines
// while jobs execute and a flaky peer trips its breaker — the race
// detector owns the assertions; the final scrape sanity-checks totals.
func TestMetricsScrapesRaceJobs(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 2, CacheSize: 8, FailThreshold: 1, RetryBackoff: -1})
	flaky := &flakyBackend{}
	m.setBackends(flaky, m.local)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	const jobs = 4
	var wg sync.WaitGroup
	for seed := uint64(0); seed < jobs; seed++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			j, _, err := m.Submit(tinySpec(800 + seed))
			if err != nil {
				t.Error(err)
				return
			}
			waitDone(t, j)
		}(seed)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	body := scrape(t, srv.URL)
	if done := metricValue(t, body, "asymd_jobs_done_total"); done != jobs {
		t.Errorf("asymd_jobs_done_total = %v, want %d", done, jobs)
	}
	// The flaky peer failed every attempt it was handed, so failovers and
	// per-peer failures moved, and its breaker opened at least once.
	if fo := metricValue(t, body, "asymd_shard_failovers_total"); fo <= 0 {
		t.Errorf("asymd_shard_failovers_total = %v, want > 0", fo)
	}
	if pf := metricValue(t, body, `asymd_peer_failures_total{peer="flaky"}`); pf <= 0 {
		t.Errorf("peer failures = %v, want > 0", pf)
	}
	if tr := metricValue(t, body, `asymd_breaker_transitions_total{peer="flaky",to="down"}`); tr <= 0 {
		t.Errorf("transitions to down = %v, want > 0", tr)
	}
}

// TestBreakerStateGauge drives a peer down and back up with the breaker
// state machine and checks the gauge tracks it.
func TestBreakerStateGauge(t *testing.T) {
	m := NewManager(Config{Workers: 1, FailThreshold: 2})
	m.setBackends(&flakyBackend{}, m.local)
	var h *backendHandle
	for _, cand := range m.handles {
		if cand.breaker {
			h = cand
		}
	}
	if h == nil {
		t.Fatal("no breaker-tracked handle")
	}
	gauge := func() float64 {
		var buf bytes.Buffer
		m.Registry().WritePrometheus(&buf)
		return metricValue(t, buf.String(), `asymd_breaker_state{peer="flaky"}`)
	}

	if got := gauge(); got != float64(peerHealthy) {
		t.Fatalf("initial breaker gauge = %v, want %d", got, peerHealthy)
	}
	m.report(h, fmt.Errorf("boom"))
	m.report(h, fmt.Errorf("boom"))
	if got := gauge(); got != float64(peerDown) {
		t.Fatalf("breaker gauge after trip = %v, want %d", got, peerDown)
	}
	m.report(h, nil)
	if got := gauge(); got != float64(peerHealthy) {
		t.Fatalf("breaker gauge after recovery = %v, want %d", got, peerHealthy)
	}
	var buf bytes.Buffer
	m.Registry().WritePrometheus(&buf)
	if tr := metricValue(t, buf.String(), `asymd_breaker_transitions_total{peer="flaky",to="healthy"}`); tr != 1 {
		t.Errorf("transitions to healthy = %v, want 1", tr)
	}
}

// chromeEvt mirrors one Chrome trace-event for assertions; the export
// is a top-level JSON array of these.
type chromeEvt struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestTraceEndpoint runs a job whose every cell crosses the wire to a
// worker node and checks GET /v1/jobs/{id}/trace exports a merged
// coordinator+worker timeline: job phases, shard dispatch slices, and
// the worker's simulate slices grafted into the attempt window.
func TestTraceEndpoint(t *testing.T) {
	_, wsrv := newTestServer(t, Config{Workers: 2})
	coord, csrv := newTestServer(t, Config{Workers: 2, ShardSize: 2})
	coord.setBackends(NewRemoteBackend(wsrv.URL, 0)) // no local pool: all cells remote

	j, _, err := coord.submit(tinySpec(31), "trace-req-7")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	st := j.Snapshot()
	if st.RequestID != "trace-req-7" {
		t.Errorf("snapshot request_id = %q, want trace-req-7", st.RequestID)
	}
	wantURL := "/v1/jobs/" + j.Hash + "/trace"
	if st.TraceURL != wantURL {
		t.Fatalf("snapshot trace_url = %q, want %q", st.TraceURL, wantURL)
	}

	resp, err := http.Get(csrv.URL + st.TraceURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	var events []chromeEvt
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	var lanes, queued, shardSlices, simulate, merge, fingerprint int
	for _, ev := range events {
		switch {
		case ev.Ph == "M":
			lanes++
			continue
		case ev.Ph != "X":
			t.Errorf("unexpected event phase %q", ev.Ph)
			continue
		case ev.Dur < 0:
			t.Errorf("event %q has negative duration %v", ev.Name, ev.Dur)
		}
		switch {
		case ev.Name == "queued":
			queued++
		case ev.Cat == "dispatch" && strings.HasPrefix(ev.Name, "shard "):
			shardSlices++
			if ev.Args["backend"] == nil {
				t.Errorf("shard slice %q missing backend arg", ev.Name)
			}
		case ev.Cat == "simulate":
			simulate++
		case ev.Name == "merge":
			merge++
		case ev.Name == "fingerprint":
			fingerprint++
		}
	}
	if lanes == 0 {
		t.Error("trace has no thread_name lane metadata")
	}
	if queued != 1 || merge != 1 || fingerprint != 1 {
		t.Errorf("trace has %d queued, %d merge and %d fingerprint slices, want 1 each", queued, merge, fingerprint)
	}
	// tinySpec has 4 cells at ShardSize 2 → at least 2 shard attempts,
	// each answered by the worker with simulate spans to graft.
	if shardSlices < 2 {
		t.Errorf("trace has %d shard slices, want >= 2", shardSlices)
	}
	if simulate == 0 {
		t.Error("trace has no worker simulate slices (grafting failed)")
	}
}

// TestTraceDisabled checks TraceRetention < 0 turns tracing off: no
// trace URL in snapshots and 404 from the endpoint.
func TestTraceDisabled(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1, TraceRetention: -1})
	j, _, err := m.Submit(tinySpec(32))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if url := j.Snapshot().TraceURL; url != "" {
		t.Errorf("snapshot advertises trace_url %q with tracing disabled", url)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.Hash + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET trace with tracing disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestRequestIDPropagation submits over HTTP with an explicit
// X-Request-ID and checks it is echoed in the response header and
// status body, and rides the job's shard POSTs to the worker.
func TestRequestIDPropagation(t *testing.T) {
	worker := NewManager(Config{Workers: 1})
	wh := worker.Handler(slog.New(slog.NewTextHandler(io.Discard, nil)))
	var mu sync.Mutex
	var seen []string
	wsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			mu.Lock()
			seen = append(seen, r.Header.Get("X-Request-ID"))
			mu.Unlock()
		}
		wh.ServeHTTP(w, r)
	}))
	defer wsrv.Close()

	coord, csrv := newTestServer(t, Config{Workers: 1, ShardSize: 2})
	coord.setBackends(NewRemoteBackend(wsrv.URL, 0))

	sj, err := tinySpec(33).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, csrv.URL+"/v1/jobs", strings.NewReader(fmt.Sprintf(`{"spec": %s}`, sj)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "corr-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "corr-42" {
		t.Errorf("response X-Request-ID = %q, want corr-42", got)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RequestID != "corr-42" {
		t.Errorf("status request_id = %q, want corr-42", st.RequestID)
	}

	pollDone(t, csrv.URL, st.ID)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("worker served no shards")
	}
	for _, id := range seen {
		if id != "corr-42" {
			t.Errorf("worker saw X-Request-ID %q, want corr-42", id)
		}
	}
}

// TestRequestIDMinted checks a submission without an X-Request-ID gets
// one minted and returned.
func TestRequestIDMinted(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	st, code := postJob(t, srv.URL, `{"family": "burst-sweep", "scale": 0.001}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if st.RequestID == "" {
		t.Error("minted request_id missing from status")
	}
	pollDone(t, srv.URL, st.ID)
}

// TestStatusWriterFlusher checks the logging wrapper passes Flush
// through (and exposes Unwrap for http.ResponseController) instead of
// silently swallowing streaming.
func TestStatusWriterFlusher(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	var w http.ResponseWriter = sw
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	if err := http.NewResponseController(sw).Flush(); err != nil {
		t.Errorf("ResponseController.Flush: %v", err)
	}
	if sw.Unwrap() != http.ResponseWriter(rec) {
		t.Error("Unwrap does not return the wrapped writer")
	}
	// A non-flushing underlying writer must not panic.
	(&statusWriter{ResponseWriter: nonFlusher{}}).Flush()
}

type nonFlusher struct{ http.ResponseWriter }

func (nonFlusher) Header() http.Header         { return http.Header{} }
func (nonFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (nonFlusher) WriteHeader(int)             {}

// TestPprofGate checks the profiler mounts only when asked for.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof: status %d, want 404", resp.StatusCode)
	}
	_, on := newTestServer(t, Config{Workers: 1, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d, want 200", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(b, []byte("goroutine")) {
		t.Error("pprof index does not list profiles")
	}
}

// TestTraceRetentionEvicts checks finished traces fall out of the
// retention LRU oldest-first.
func TestTraceRetentionEvicts(t *testing.T) {
	m := NewManager(Config{Workers: 1, TraceRetention: 1})
	j1, _, err := m.Submit(tinySpec(41))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if _, ok := m.JobTrace(j1.Hash); !ok {
		t.Fatal("finished job's trace not retained")
	}
	j2, _, err := m.Submit(tinySpec(42))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if _, ok := m.JobTrace(j1.Hash); ok {
		t.Error("oldest trace survived past retention capacity")
	}
	if _, ok := m.JobTrace(j2.Hash); !ok {
		t.Error("newest trace missing from retention")
	}
}
