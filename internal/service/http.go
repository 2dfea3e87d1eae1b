package service

// HTTP/JSON wire API over Manager (binary frames on the worker-facing
// shard endpoint):
//
//	POST /v1/jobs            {"family": "...", "scale": 0.1, "seed": 7}
//	                         or {"spec": {...canonical spec JSON...}}
//	                         → 202 Status (200 when absorbed by an
//	                         in-flight or cached job)
//	GET  /v1/jobs            → 200 [Status] (in-flight first, then cached)
//	GET  /v1/jobs/{id}       → 200 Status
//	GET  /v1/results/{hash}  → 200 Result (409 while still running)
//	GET  /v1/families        → 200 [{name, desc}], sorted by name
//	GET  /v1/healthz         → 200 {ok, stats, peers: per-peer breaker state}
//	GET  /v1/jobs/{id}/trace → 200 Chrome-trace JSON (load in Perfetto)
//	GET  /v1/jobs/{id}/cells/{i}/simtrace
//	                         → 200 sim-time Chrome trace of plan cell i:
//	                         task slices plus queue-depth/ready/PTT-error/
//	                         core-utilization counter lanes, rendered by
//	                         deterministic re-execution (works for cells
//	                         that originally ran on a remote shard)
//	GET  /metrics            → 200 Prometheus text exposition
//	GET  /debug/pprof/*      net/http/pprof (only with Config.EnablePprof)
//	POST /v1/shards          worker-facing: run a batch of plan cells
//	                         binary request frame (canonical spec, cells by
//	                         policy/point/rep/hash; wire.go)
//	                         → 200 binary response frame (per-cell metrics
//	                         or error, elapsed ms, worker-side timeline);
//	                         409 on frame-version or cell-hash skew
//
// Every request carries an X-Request-ID (echoed from the caller, minted
// here otherwise); it is returned as a response header, attached to the
// request log line, rides job submissions into outgoing shard POSTs, and
// so correlates one submission's log lines across the whole fleet.
//
// Job IDs are spec hashes, so the jobs and results namespaces share keys:
// submit returns the ID, poll /v1/jobs/{id} until "done", then fetch
// /v1/results/{id}.
//
// /v1/shards is how one asymd node farms work to another (-peers): the
// coordinator ships the canonical spec plus cell coordinates, the worker
// re-plans it, verifies the frame version and the cell hashes (rejecting
// either skew with 409), serves what its own cell cache holds and
// simulates the rest on its local pool.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"dynasym/internal/scenario"
	"dynasym/internal/trace"
)

// maxSpecBytes bounds a submitted spec document.
const maxSpecBytes = 1 << 20

// SubmitRequest is the POST /v1/jobs body: either a registered family at
// a scale, or a raw spec document — not both.
type SubmitRequest struct {
	Family string          `json:"family,omitempty"`
	Scale  float64         `json:"scale,omitempty"`
	Seed   *uint64         `json:"seed,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
}

// ResultResponse is the GET /v1/results/{hash} body: the grid summary
// plus the engine's bit-exact fingerprint (identical to what a direct
// scenario.Run of the same spec produces).
type ResultResponse struct {
	Hash        string      `json:"hash"`
	Name        string      `json:"name"`
	Topo        string      `json:"topo"`
	Policies    []string    `json:"policies"`
	Points      []string    `json:"points"`
	Throughputs [][]float64 `json:"throughputs"`
	Fingerprint string      `json:"fingerprint"`
	ElapsedSec  float64     `json:"elapsed_sec"`
}

// FamilyInfo is one GET /v1/families entry.
type FamilyInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// Handler returns the service's HTTP handler with structured request
// logging to logger (nil = slog.Default()).
func (m *Manager) Handler(logger *slog.Logger) http.Handler {
	if logger == nil {
		logger = slog.Default()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", m.handleHealthz)
	mux.HandleFunc("GET /v1/families", m.handleFamilies)
	mux.HandleFunc("POST /v1/jobs", m.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", m.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", m.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", m.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/cells/{i}/simtrace", m.handleSimTrace)
	mux.HandleFunc("GET /v1/results/{hash}", m.handleResult)
	mux.HandleFunc("POST /v1/shards", m.handleShards)
	if !m.cfg.DisableMetrics {
		mux.Handle("GET /metrics", m.reg.Handler())
	}
	if m.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return logRequests(logger, mux)
}

func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK    bool         `json:"ok"`
		Stats Stats        `json:"stats"`
		Peers []PeerStatus `json:"peers,omitempty"`
	}{true, m.Stats(), m.PeerHealth()})
}

func (m *Manager) handleFamilies(w http.ResponseWriter, r *http.Request) {
	names := scenario.Names()
	out := make([]FamilyInfo, 0, len(names))
	for _, n := range names {
		f, _ := scenario.Lookup(n)
		out = append(out, FamilyInfo{Name: f.Name, Desc: f.Desc})
	}
	// Names() already sorts, but the stable-response contract belongs to
	// this endpoint — keep it even if the registry's ordering changes.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (m *Manager) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.Jobs())
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	var (
		job      *Job
		existing bool
		err      error
	)
	switch {
	case req.Family != "" && len(req.Spec) > 0:
		writeError(w, http.StatusBadRequest, errors.New("give either family or spec, not both"))
		return
	case req.Family != "":
		job, existing, err = m.submitFamily(req.Family, req.Scale, req.Seed, requestIDFrom(r.Context()))
	case len(req.Spec) > 0:
		var spec scenario.Spec
		spec, err = scenario.ParseSpec(req.Spec)
		if err == nil {
			job, existing, err = m.submit(spec, requestIDFrom(r.Context()))
		}
	default:
		writeError(w, http.StatusBadRequest, errors.New("give a family or a spec"))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if existing {
		code = http.StatusOK
	}
	writeJSON(w, code, job.Snapshot())
}

func (m *Manager) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job (evicted or never submitted)"))
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// handleTrace exports a job's service-level timeline as Chrome-trace
// JSON: one lane per backend attempt slot (plus nested worker-pool
// lanes), one slice per shard/cell/phase. Save the body to a file and
// open it in https://ui.perfetto.dev.
func (m *Manager) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans, ok := m.JobTrace(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no trace for job (unknown, evicted, or tracing disabled)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = spans.WriteChromeTrace(w)
}

// handleSimTrace exports the simulated schedule of one plan cell as
// Chrome-trace JSON (see Manager.SimTrace). The cell index enumerates the
// plan's grid policy-major, then point, then repetition.
func (m *Manager) handleSimTrace(w http.ResponseWriter, r *http.Request) {
	cell, err := strconv.Atoi(r.PathValue("i"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad cell index %q", r.PathValue("i")))
		return
	}
	b, err := m.SimTrace(r.PathValue("id"), cell)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (m *Manager) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Job(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown result (evicted or never submitted)"))
		return
	}
	switch job.State() {
	case StateQueued, StateRunning:
		writeJSON(w, http.StatusConflict, job.Snapshot())
		return
	case StateFailed:
		_, _, _, err := job.Result()
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	res, fprint, elapsed, err := job.Result()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	labels := make([]string, len(res.Points))
	for i, pt := range res.Points {
		labels[i] = pt.Label
	}
	writeJSON(w, http.StatusOK, ResultResponse{
		Hash:        job.Hash,
		Name:        res.Name,
		Topo:        res.Topo.String(),
		Policies:    res.Policies,
		Points:      labels,
		Throughputs: res.Throughputs(),
		Fingerprint: fprint,
		ElapsedSec:  elapsed.Seconds(),
	})
}

// handleShards serves the worker side of the shard API: re-plan the
// shipped spec, verify the requested cells against the local derivation,
// serve cached cells and simulate the rest on the local pool. A frame of
// another version, or hash disagreement, means the peer runs a different
// codec, canonical encoding or engine — refuse with 409 rather than
// misread the shard or return results under keys the coordinator will
// misfile.
func (m *Manager) handleShards(w http.ResponseWriter, r *http.Request) {
	frame, err := readFrame(http.MaxBytesReader(w, r.Body, maxShardBytes), r.ContentLength)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read shard request: %w", err))
		return
	}
	req, err := decodeShardRequest(frame)
	switch {
	case errors.Is(err, errShardVersion):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode shard request: %w", err))
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("shard has no cells"))
		return
	}
	spec, err := scenario.ParseSpec(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	specHash, err := spec.Hash()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := m.planFor(specHash, spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cells := make([]scenario.CellJob, len(req.Cells))
	for i, sc := range req.Cells {
		c, err := plan.Cell(sc.Policy, sc.Point, sc.Rep)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if sc.Hash != c.Hash {
			writeError(w, http.StatusConflict, fmt.Errorf(
				"cell (%d,%d,%d) hashes to %.12s here, coordinator says %.12s (version skew?)",
				sc.Policy, sc.Point, sc.Rep, c.Hash, sc.Hash))
			return
		}
		cells[i] = c
	}

	// The worker records its own span timeline, offset from request
	// receipt, and returns it with the results; the coordinator grafts it
	// into the job trace (remote.go graftSpans), so the merged timeline
	// shows wire time, worker pool slots and per-cell slices without any
	// cross-node clock agreement.
	shardT0 := m.now()
	jt := newJobTrace(shardT0, m.now, trace.NewSpanSet(maxSpansPerJob))

	cached, missing := m.probeCells(cells)
	executed := make(map[string]CellResult, len(missing))
	if len(missing) > 0 {
		crs, err := m.local.Execute(withJobTrace(r.Context(), jt), plan, missing)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		m.bankCells(crs)
		// Counters move only once the shard is actually served: a shard
		// the pool never ran (canceled request, pool error) is retried by
		// the coordinator on another backend and must not be counted
		// twice — for misses or for hits.
		m.mx.cellMisses.Add(int64(len(crs)))
		for _, cr := range crs {
			executed[cr.Hash] = cr
		}
	}
	results := make([]shardCellResult, len(cells))
	var hits int64
	for i, c := range cells {
		if rm, ok := cached[c.Hash]; ok {
			rm := rm
			results[i] = shardCellResult{Hash: c.Hash, Metrics: &rm}
			hits++
		} else if cr, ok := executed[c.Hash]; ok {
			if cr.Err != nil {
				results[i] = shardCellResult{Hash: c.Hash, Error: cr.Err.Error()}
			} else {
				rm := cr.Metrics
				results[i] = shardCellResult{Hash: c.Hash, Metrics: &rm}
			}
		} else {
			// Unreachable: every requested cell is cached or executed.
			writeError(w, http.StatusInternalServerError, fmt.Errorf("cell %.12s neither cached nor executed", c.Hash))
			return
		}
	}
	m.mx.cellHits.Add(hits)

	elapsed := m.now().Sub(shardT0)
	resp := shardResponse{Results: results, ElapsedMS: float64(elapsed) / float64(time.Millisecond)}
	resp.Spans = append(resp.Spans, wireSpan{
		Name: fmt.Sprintf("serve shard (%d cells, %d cached)", len(cells), hits),
		Cat:  "simulate", EndMS: resp.ElapsedMS,
	})
	for _, sp := range jt.spans.Spans() {
		resp.Spans = append(resp.Spans, wireSpan{
			Name: sp.Name, Cat: sp.Cat, Lane: sp.Lane,
			StartMS: float64(sp.Start) / float64(time.Millisecond),
			EndMS:   float64(sp.End) / float64(time.Millisecond),
		})
	}
	body, err := encodeShardResponse(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeFrame(w, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// statusWriter captures the response code and size for the request log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

// Flush passes streaming through to the underlying writer — wrapping
// must not cost handlers (pprof's trace endpoint, long scrapes) their
// ability to flush incrementally.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer for
// interfaces this wrapper doesn't re-export.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// logRequests assigns each request its ID (echoing the caller's
// X-Request-ID, minting one otherwise) and emits one structured log line
// per request. Scrape traffic — /v1/healthz and /metrics, typically
// polled every few seconds by monitoring — logs at Debug so an idle
// node's log stays quiet at the default Info level.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(withRequestID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		level := slog.LevelInfo
		if r.URL.Path == "/v1/healthz" || r.URL.Path == "/metrics" {
			level = slog.LevelDebug
		}
		logger.Log(r.Context(), level, "request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.code,
			"bytes", sw.bytes,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
			"request_id", id,
		)
	})
}
