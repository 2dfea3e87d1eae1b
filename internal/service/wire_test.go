package service

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/metrics"
	"dynasym/internal/scenario"
	"dynasym/internal/workloads"
)

// kmeansSpec is a small K-means grid: per-iteration stats with place
// rows, the part of RunMetrics Figure 9 reads.
func kmeansSpec() scenario.Spec {
	return scenario.Spec{
		Name: "wire-kmeans",
		Workload: scenario.WorkloadSpec{Kind: scenario.KMeans, KMeans: workloads.KMeansConfig{
			N: 4096, K: 4, Grains: 16, MaxIters: 3,
		}},
		Policies: []core.Policy{core.DAMP()},
		Seed:     9,
	}
}

// burstSweepSpec is the burst-sweep family at scale: a synthetic grid
// that records a stat per DAG layer.
func burstSweepSpec(scale float64) scenario.Spec {
	f, _ := scenario.Lookup("burst-sweep")
	return f.Spec(scale, 1)
}

// realShard runs a spec's first cell in process and returns the request
// and response frames a worker would exchange for it.
func realShard(tb testing.TB, spec scenario.Spec) (req, resp []byte, rm scenario.RunMetrics) {
	tb.Helper()
	plan, err := scenario.NewPlan(spec)
	if err != nil {
		tb.Fatal(err)
	}
	c := plan.Cells[0]
	if rm, err = plan.RunCell(c); err != nil {
		tb.Fatal(err)
	}
	req, err = encodeShardRequest(shardRequest{Spec: plan.Canonical, Cells: []shardCell{
		{Policy: c.Policy, Point: c.Point, Rep: c.Rep, Hash: c.Hash},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	resp, err = encodeShardResponse(shardResponse{
		Results:   []shardCellResult{{Hash: c.Hash, Metrics: &rm}},
		ElapsedMS: 1.5,
		Spans:     []wireSpan{{Name: "serve shard (1 cells, 0 cached)", Cat: "simulate", EndMS: 1.5}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return req, resp, rm
}

// TestShardFrameRejectsSched: the frame has no field for scheduler
// telemetry, so a cell carrying it fails to encode instead of losing it.
func TestShardFrameRejectsSched(t *testing.T) {
	_, err := encodeShardResponse(shardResponse{Results: []shardCellResult{
		{Hash: "abc", Metrics: &scenario.RunMetrics{Sched: &metrics.Sched{}}},
	}})
	if err == nil || !strings.Contains(err.Error(), "Sched") {
		t.Fatalf("encoding a cell with Sched: err = %v, want a Sched error", err)
	}
}

// TestShardFrameVersionSkew: a frame of another version is errShardVersion
// (the worker's 409), anything else malformed is a plain error.
func TestShardFrameVersionSkew(t *testing.T) {
	req, resp, _ := realShard(t, kmeansSpec())
	for _, frame := range [][]byte{req, resp} {
		skewed := bytes.Clone(frame)
		skewed[len(shardMagic)] = shardVersion + 1
		_, errReq := decodeShardRequest(skewed)
		_, errResp := decodeShardResponse(skewed)
		if !errors.Is(errReq, errShardVersion) || !errors.Is(errResp, errShardVersion) {
			t.Errorf("skewed frame: errors %v / %v, want version skew", errReq, errResp)
		}
	}
	if _, err := decodeShardResponse(req); err == nil || errors.Is(err, errShardVersion) {
		t.Errorf("request frame decoded as a response: err = %v", err)
	}
}

// FuzzShardFrame feeds arbitrary bytes to both frame decoders. They must
// never panic, a length prefix must never make them allocate more than a
// small multiple of the input, and every frame that decodes must
// re-encode to the same bytes.
func FuzzShardFrame(f *testing.F) {
	for _, spec := range []scenario.Spec{kmeansSpec(), burstSweepSpec(0.02)} {
		req, resp, _ := realShard(f, spec)
		f.Add(req)
		f.Add(resp)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		req, errReq := decodeShardRequest(b)
		resp, errResp := decodeShardResponse(b)
		runtime.ReadMemStats(&ms)
		// The costliest element, an empty error result, decodes from 2
		// bytes into a 40-byte struct; 64x plus slack bounds both decoders.
		if grew, bound := ms.TotalAlloc-before, uint64(64*len(b)+64<<10); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(b), grew, bound)
		}
		if errReq == nil {
			if re, err := encodeShardRequest(req); err != nil || !bytes.Equal(re, b) {
				t.Fatalf("request frame re-encodes differently (err %v)", err)
			}
		}
		if errResp == nil {
			if re, err := encodeShardResponse(resp); err != nil || !bytes.Equal(re, b) {
				t.Fatalf("response frame re-encodes differently (err %v)", err)
			}
		}
	})
}
