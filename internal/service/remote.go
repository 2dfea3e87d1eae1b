package service

// Remote backend: farms cell shards to a peer asymd node over its
// internal POST /v1/shards API (served by Manager.Handler, see http.go).
//
// The wire format ships the plan's canonical spec JSON plus each cell's
// grid coordinates and expected hash. The worker re-plans the spec —
// re-deriving the same cells from the same canonical encoding — and
// verifies the hashes match before running anything, so a version-skewed
// peer refuses the shard instead of silently producing results under the
// wrong key. The check catches both encoding skew (the re-derived base
// differs) and engine skew (scenario.cellHashVersion, baked into every
// cell hash, must be bumped when engine behavior changes). Both bodies
// are binary frames (wire.go) that carry every float as its IEEE-754
// bits, so merged fingerprints stay bit-identical to an in-process run.
// The frame is versioned: a worker on another frame version refuses the
// shard with 409, like hash skew, and the coordinator fails the attempt.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"dynasym/internal/scenario"
	"dynasym/internal/trace"
)

// maxShardBytes bounds a shard request or response frame. A response
// carries full metric sets (per-core busy times, histograms and a dense
// place row per iteration, up to ~50 KB for a scale-0.1 burst-sweep
// cell), so the bound sits well above maxSpecBytes and any 16-cell shard
// the built-in families produce.
const maxShardBytes = 64 << 20

// remoteBackend executes shards on one peer asymd node.
type remoteBackend struct {
	url    string // peer base URL, no trailing slash
	client *http.Client
}

// NewRemoteBackend returns a Backend that runs shards on the asymd node at
// baseURL (e.g. "http://10.0.0.7:8080"). Simulations can be long, so the
// client has no overall timeout — the dispatcher bounds each attempt with
// Config.ShardTimeout via the request context — but connecting gets its
// own short timeout (Config.DialTimeout; 0 picks the 10s default, < 0
// disables) so an unroutable peer fails over fast.
func NewRemoteBackend(baseURL string, dialTimeout time.Duration) Backend {
	return newRemoteBackend(baseURL, dialTimeout, nil)
}

// newRemoteBackend additionally accepts a transport override, which the
// chaos suite uses to inject wire-level faults (faultinject_test.go)
// between a real coordinator and a real worker.
func newRemoteBackend(baseURL string, dialTimeout time.Duration, rt http.RoundTripper) Backend {
	if dialTimeout == 0 {
		dialTimeout = 10 * time.Second
	} else if dialTimeout < 0 {
		dialTimeout = 0 // net.Dialer: no timeout
	}
	if rt == nil {
		rt = &http.Transport{
			DialContext: (&net.Dialer{Timeout: dialTimeout}).DialContext,
		}
	}
	return &remoteBackend{
		url:    strings.TrimRight(baseURL, "/"),
		client: &http.Client{Transport: rt},
	}
}

func (r *remoteBackend) Name() string { return "peer " + r.url }

// graftSpans merges the worker's shard timeline into the coordinator's
// job trace. The attempt window [t0, t1] minus the worker's own elapsed
// time is wire time, split symmetrically: the worker's offsets re-base
// at t0 + oneWay. Worker lane "" lands on the attempt lane itself; pool
// lanes ("w0", "w1", ...) nest under it by prefixing, so each worker
// slot renders as its own Perfetto track. The residual wire time gets
// explicit "wire" slices bracketing the worker span.
func (r *remoteBackend) graftSpans(jt *jobTrace, lane string, t0, t1 time.Duration, sr *shardResponse) {
	if jt == nil || sr.ElapsedMS <= 0 {
		return
	}
	elapsed := time.Duration(sr.ElapsedMS * float64(time.Millisecond))
	oneWay := (t1 - t0 - elapsed) / 2
	if oneWay < 0 {
		oneWay, elapsed = 0, t1-t0
	}
	base := t0 + oneWay
	if oneWay > 0 {
		jt.span(trace.Span{Name: "wire", Cat: "wire", Lane: lane, Start: t0, End: base})
		jt.span(trace.Span{Name: "wire", Cat: "wire", Lane: lane, Start: base + elapsed, End: t1})
	}
	for _, ws := range sr.Spans {
		l := lane
		if ws.Lane != "" {
			l = lane + " " + ws.Lane
		}
		start := base + time.Duration(ws.StartMS*float64(time.Millisecond))
		end := base + time.Duration(ws.EndMS*float64(time.Millisecond))
		if end > t1 {
			end = t1
		}
		if start > end {
			start = end
		}
		jt.span(trace.Span{Name: ws.Name, Cat: ws.Cat, Lane: l, Start: start, End: end})
	}
}

func (r *remoteBackend) Execute(ctx context.Context, plan *scenario.Plan, cells []scenario.CellJob) ([]CellResult, error) {
	// The plan carries its canonical encoding; re-marshaling here would
	// re-encode the full spec (graph included, for dagfile workloads)
	// once per shard attempt.
	req := shardRequest{Spec: plan.Canonical, Cells: make([]shardCell, len(cells))}
	for i, c := range cells {
		req.Cells[i] = shardCell{Policy: c.Policy, Point: c.Point, Rep: c.Rep, Hash: c.Hash}
	}
	body, err := encodeShardRequest(req)
	if err != nil {
		return nil, fmt.Errorf("encode shard: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", shardContentType)
	if id := requestIDFrom(ctx); id != "" {
		hreq.Header.Set("X-Request-ID", id)
	}
	jt := jobTraceFrom(ctx)
	t0 := jt.at()
	resp, err := r.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("post shard: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("shard rejected: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	frame, err := readFrame(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("read shard response: %w", err)
	}
	sr, err := decodeShardResponse(frame)
	if err != nil {
		return nil, fmt.Errorf("decode shard response: %w", err)
	}
	r.graftSpans(jt, traceLaneFrom(ctx), t0, jt.at(), &sr)
	if len(sr.Results) != len(cells) {
		return nil, fmt.Errorf("shard response has %d results for %d cells", len(sr.Results), len(cells))
	}
	out := make([]CellResult, len(cells))
	for i, cr := range sr.Results {
		if cr.Hash != cells[i].Hash {
			return nil, fmt.Errorf("shard result %d carries hash %.12s, want %.12s", i, cr.Hash, cells[i].Hash)
		}
		out[i] = CellResult{Hash: cr.Hash}
		switch {
		case cr.Metrics != nil:
			out[i].Metrics = *cr.Metrics
		case cr.Error == "":
			return nil, fmt.Errorf("shard result %d has neither metrics nor error", i)
		default:
			out[i].Err = errors.New(cr.Error)
		}
	}
	return out, nil
}
