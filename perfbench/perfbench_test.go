package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailSelectsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{n: 5, value: 5, pct: 100, beyond: 0},   // too few samples: the maximum
		{n: 10, value: 10, pct: 100, beyond: 0}, // still too few
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10},
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 1000, value: 990, pct: 99, beyond: 10},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewPCG(1, uint64(tc.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		v, pct, beyond := tail(xs)
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 || beyond != tc.beyond {
			t.Errorf("n=%d: tail = (%v, p%v, %d beyond), want (%v, p%v, %d)", tc.n, v, pct, beyond, tc.value, tc.pct, tc.beyond)
		}
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above != beyond {
			t.Errorf("n=%d: %d samples lie beyond the tail, reported %d", tc.n, above, beyond)
		}
	}
}

func TestMedianIsNearestRank(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2 (the 2nd of 4)", got)
	}
	if i := medianIndex(xs); xs[i] != median(xs) {
		t.Errorf("medianIndex picks %v, median is %v", xs[i], median(xs))
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func dur(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func TestSelfTimesOfNestedSpans(t *testing.T) {
	// op [0,100): service [10,60) holding wire [20,30), pool [70,90).
	spans := []span{
		{id: 1, name: "op", start: dur(0), end: dur(100)},
		{id: 2, parent: 1, name: "service.wait", start: dur(10), end: dur(60)},
		{id: 3, parent: 2, name: "wire.shard", start: dur(20), end: dur(30)},
		{id: 4, parent: 1, name: "pool.simulate", start: dur(70), end: dur(90)},
	}
	got := selfTimes(spans, 1)
	want := map[string]time.Duration{"service": dur(40), "wire": dur(10), "pool": dur(20), uncovered: dur(30)}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

func TestSelfTimesChargeOverlappingSiblingsOnce(t *testing.T) {
	// Two concurrent shards under one dispatch: [10,50) on the pool and
	// [20,80) over the wire. The overlap goes to the later-ending wire
	// shard, and the parts add up to the op.
	spans := []span{
		{id: 1, name: "op", start: dur(0), end: dur(100)},
		{id: 2, parent: 1, name: "service.dispatch", start: dur(5), end: dur(90)},
		{id: 3, parent: 2, name: "pool.shard", start: dur(10), end: dur(50)},
		{id: 4, parent: 2, name: "wire.shard", start: dur(20), end: dur(80)},
		{id: 5, name: "replay", start: dur(0), end: dur(100)}, // another root: ignored
	}
	got := selfTimes(spans, 1)
	want := map[string]time.Duration{"service": dur(15), "pool": dur(10), "wire": dur(60), uncovered: dur(15)}
	var sum time.Duration
	for k, v := range got {
		sum += v
		if want[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, v, want[k])
		}
	}
	if sum != dur(100) {
		t.Errorf("self times add up to %v, want the op's 100ms", sum)
	}
}

func TestUnion(t *testing.T) {
	iv := [][2]time.Duration{{dur(30), dur(40)}, {dur(0), dur(10)}, {dur(5), dur(20)}, {dur(35), dur(50)}}
	if got := union(iv); got != dur(40) {
		t.Errorf("union = %v, want 40ms", got)
	}
}

func TestParsePromSumsSeries(t *testing.T) {
	text := `# HELP asymd_peer_failures_total Failed shard attempts, per peer.
# TYPE asymd_peer_failures_total counter
asymd_peer_failures_total{peer="local"} 1
asymd_peer_failures_total{peer="http://127.0.0.1:1"} 2
asymd_cell_run_seconds_sum 0.25
`
	got, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got["asymd_peer_failures_total"] != 3 || got["asymd_cell_run_seconds_sum"] != 0.25 {
		t.Errorf("parsed %v", got)
	}
}

// TestWorkloadsPassOutputCheck runs every workload for the fewest ops,
// untraced and traced, and requires every op to pass its output check.
func TestWorkloadsPassOutputCheck(t *testing.T) {
	for _, wl := range allWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			if wl.why == "" || strings.Contains(wl.why, "\n") {
				t.Errorf("workload %s needs a one-line why", wl.name)
			}
			cfg := config{seed: 7, dur: time.Millisecond, minOps: 2, setups: 1, out: t.TempDir()}
			rep, err := measureEndToEnd(wl, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < cfg.minOps {
				t.Fatalf("end-to-end: correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
			}
			for _, d := range endToEnd {
				if m, ok := rep.Metrics[d.name]; !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
				}
			}

			rep, err = measureLayers(wl, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", rep.Correct, rep.Failed)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(rep.Metrics), len(perLayer))
			}
			var self float64
			for name, m := range rep.Metrics {
				if strings.HasPrefix(name, "self.") {
					self += m.Value
				}
			}
			if p50 := rep.Metrics["bench.traced_job_ms_p50"].Value; math.Abs(self-p50) > 1e-6*p50 {
				t.Errorf("self times add up to %v ms, traced p50 is %v ms", self, p50)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, allWorkloads[i].name, allWorkloads[i].why)
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(set.json), len(set.defs))
		}
		for i, m := range set.json {
			if m.Name != set.defs[i].name || m.Unit != set.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, set.defs[i].name, set.defs[i].unit)
			}
		}
	}
}
