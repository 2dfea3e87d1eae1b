package scenario

import (
	"math"
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// okSpec is a minimal valid spec that the failure cases below mutate.
func okSpec() Spec {
	return Spec{
		Name:     "ok",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: Synthetic, Synthetic: workloads.SyntheticConfig{Kernel: workloads.MatMul, Tasks: 600}},
		Policies: []core.Policy{core.DAMC()},
	}
}

func TestValidateOK(t *testing.T) {
	if err := okSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty policy set", func(s *Spec) { s.Policies = nil }, "empty policy set"},
		{"nil policy", func(s *Spec) { s.Policies = []core.Policy{nil} }, "nil policy"},
		{"duplicate policy", func(s *Spec) { s.Policies = []core.Policy{core.DAMC(), core.DAMC()} }, "duplicate policy"},
		{"unknown preset", func(s *Spec) { s.Platform.Preset = "cray1" }, "unknown platform preset"},
		{"negative width cap", func(s *Spec) { s.Platform.WidthCap = -2 }, "negative width cap"},
		{"bad custom cluster width", func(s *Spec) {
			s.Platform = PlatformSpec{Clusters: []topology.Cluster{{
				Name: "bad", NumCores: 4, Widths: []int{1, 3}, Speed: 1, BaseHz: 1e9,
			}}}
		}, "does not divide"},
		{"negative reps", func(s *Spec) { s.Reps = -1 }, "negative repetitions"},
		{"alpha out of range", func(s *Spec) { s.Alpha = 1.5 }, "outside [0, 1]"},
		{"empty point label", func(s *Spec) { s.Points = []Point{{}} }, "empty label"},
		{"duplicate point label", func(s *Spec) {
			s.Points = []Point{{Label: "x"}, {Label: "x"}}
		}, "duplicate point label"},
		{"negative parallelism", func(s *Spec) {
			s.Points = []Point{{Label: "x", Parallelism: -1}}
		}, "negative parallelism"},
		{"negative tile", func(s *Spec) { s.Points = []Point{{Label: "x", Tile: -1}} }, "negative tile"},
		{"point alpha out of range", func(s *Spec) {
			s.Points = []Point{{Label: "x", Alpha: 2}}
		}, "outside [0, 1]"},
		{"unknown workload kind", func(s *Spec) { s.Workload.Kind = WorkloadKind(99) }, "unknown workload kind"},
		{"unknown criticality", func(s *Spec) { s.Workload.Criticality = "psychic" }, "unknown criticality"},
		{"criticality on kmeans", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: KMeans, Criticality: CritNone}
		}, "synthetic, dagfile and daggen workloads only"},
		{"synthetic point on kmeans", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: KMeans}
			s.Points = []Point{{Label: "x", Parallelism: 2}}
		}, "graph-shape fields"},
		{"negative latency", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: HeatDist}
			s.Latency = -1
		}, "latency -1"},
		{"infinite latency", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: HeatDist}
			s.Latency = math.Inf(1)
		}, "latency +Inf"},
		{"negative bandwidth", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: HeatDist}
			s.Bandwidth = -5
		}, "bandwidth -5"},
		{"NaN bandwidth", func(s *Spec) {
			s.Workload = WorkloadSpec{Kind: HeatDist}
			s.Bandwidth = math.NaN()
		}, "bandwidth NaN"},

		{"disturb unknown kind", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: DisturbKind(99)}}
		}, "unknown disturbance kind"},
		{"disturb core out of range", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunCPU, Cores: []int{17}, Share: 0.5}}
		}, "core 17 outside"},
		{"disturb cluster out of range", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: DVFS, Cluster: 9, HiHz: 2e9, LoHz: 1e9, HiDur: 5, LoDur: 5}}
		}, "cluster 9 outside"},
		{"disturb node out of range", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunCPU, Node: 1, Cores: []int{0}, Share: 0.5}}
		}, "node 1 outside"},
		{"disturb bad share", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunCPU, Cores: []int{0}, Share: 1.5}}
		}, "share 1.5 outside"},
		{"disturb zero share", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Burst, Cores: []int{0}, BusyDur: 1, IdleDur: 1}}
		}, "share 0 outside"},
		{"disturb bad bw factor", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunMemory, Cores: []int{0}, Share: 0.5, BWFactor: 2}}
		}, "bandwidth factor"},
		{"disturb inverted window", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5, From: 5, To: 2}}
		}, "bad window"},
		{"stall needs window", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Stall, Cores: []int{0}}}
		}, "explicit window"},
		{"throttle needs window", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Throttle, Cluster: 0, Floor: 0.5}}
		}, "explicit window"},
		{"throttle bad floor", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Throttle, Cluster: 0, From: 1, To: 2, Floor: 1.5}}
		}, "floor"},
		{"dvfs bad wave", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: DVFS, Cluster: 0, HiHz: 2e9}}
		}, "positive HiHz"},
		{"burst bad durations", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Burst, Cores: []int{0}, Share: 0.5}}
		}, "positive BusyDur"},
		{"burst rejects window", func(s *Spec) {
			s.Disturb = []Disturbance{{Kind: Burst, Cores: []int{0}, Share: 0.5, BusyDur: 1, IdleDur: 1, From: 1, To: 2}}
		}, "windows are not supported for periodic waves"},
		{"dvfs rejects window", func(s *Spec) {
			d := PaperDVFS(0)
			d.From, d.To = 1, 2
			s.Disturb = []Disturbance{d}
		}, "windows are not supported for periodic waves"},
		{"overlapping core windows", func(s *Spec) {
			s.Disturb = []Disturbance{
				{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5, From: 0, To: 10},
				{Kind: Stall, Cores: []int{0}, From: 5, To: 6},
			}
		}, "overlapping core availability"},
		{"whole-run plus window overlap", func(s *Spec) {
			s.Disturb = []Disturbance{
				{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5},
				{Kind: Burst, Cores: []int{0}, Share: 0.5, BusyDur: 1, IdleDur: 1},
			}
		}, "overlapping core availability"},
		{"overlapping cluster clocks", func(s *Spec) {
			s.Disturb = []Disturbance{
				{Kind: DVFS, Cluster: 0, HiHz: 2e9, LoHz: 1e9, HiDur: 5, LoDur: 5},
				{Kind: Throttle, Cluster: 0, From: 2, To: 4, Floor: 0.5},
			}
		}, "overlapping cluster clock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := okSpec()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got: %v", tc.want, err)
			}
			// Run must surface the same validation error, not panic.
			if _, err2 := Run(s); err2 == nil {
				t.Fatalf("Run accepted a spec Validate rejected")
			}
		})
	}
}

// Disturbances on distinct resources or disjoint windows must coexist.
func TestValidateDisjointWindowsOK(t *testing.T) {
	s := okSpec()
	s.Disturb = []Disturbance{
		{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5, From: 0, To: 5},
		{Kind: CoRunCPU, Cores: []int{0}, Share: 0.5, From: 5, To: 10},
		{Kind: Burst, Cores: []int{2}, Share: 0.5, BusyDur: 1, IdleDur: 1},
		{Kind: DVFS, Cluster: 1, HiHz: 2e9, LoHz: 1e9, HiDur: 5, LoDur: 5},
		{Kind: Throttle, Cluster: 0, From: 2, To: 4, Floor: 0.5},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("disjoint disturbances rejected: %v", err)
	}
}

func TestPlatformPresets(t *testing.T) {
	cases := []struct {
		preset string
		cores  int
	}{
		{"tx2", 6},
		{"haswell16", 16},
		{"haswell-node", 20},
		{"sym8", 8},
		{"scaleout-4x4", 16},
		{"scaleout-8x8", 64},
	}
	for _, tc := range cases {
		topo, err := PlatformSpec{Preset: tc.preset}.Build()
		if err != nil {
			t.Errorf("%s: %v", tc.preset, err)
			continue
		}
		if topo.NumCores() != tc.cores {
			t.Errorf("%s: %d cores, want %d", tc.preset, topo.NumCores(), tc.cores)
		}
	}
	if _, err := (PlatformSpec{Preset: "sym7"}).Build(); err == nil {
		t.Errorf("sym7 should be rejected (not a power of two)")
	}
	// Typos must not silently map onto a different platform.
	for _, bad := range []string{"scaleout-4x4junk", "sym8x", "scaleout-4x", "tx2x"} {
		if _, err := (PlatformSpec{Preset: bad}).Build(); err == nil {
			t.Errorf("preset %q should be rejected", bad)
		}
	}
}

func TestWidthCap(t *testing.T) {
	topo, err := PlatformSpec{Preset: "tx2", WidthCap: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.MaxWidth() != 1 {
		t.Fatalf("width-capped TX2 has max width %d, want 1", topo.MaxWidth())
	}
	if got, want := len(topo.Places()), topo.NumCores(); got != want {
		t.Fatalf("width-1 TX2 has %d places, want %d", got, want)
	}
}
