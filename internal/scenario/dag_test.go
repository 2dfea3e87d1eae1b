package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynasym/internal/core"
	"dynasym/internal/dagio"
)

// dagFileSpec builds a DAGFile spec around the bundled demo graph.
func dagFileSpec(pols []core.Policy) Spec {
	return Spec{
		Name:     "dag-test",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGFile, DAG: dagio.Demo()},
		Policies: pols,
		Seed:     42,
	}
}

// A DAGFile spec's hash is a function of graph content only: the same
// graph loaded from differently named files, in a different declaration
// order, or through the other import format must hash identically.
func TestDAGFileHashIgnoresPathAndOrder(t *testing.T) {
	dir := t.TempDir()
	shuffled := `// same demo graph, declarations reversed, other filename
digraph other_name {
  node [work=6.1e6, bytes=6.6e4, type="analyze"];
  report [work=3.1e6, bytes=1.3e5, type="io", high=true];
  m2 [work=2.4e6, bytes=2.6e5, type="merge"];
  m1 [work=2.4e6, bytes=2.6e5, type="merge"];
  m0 [work=2.4e6, bytes=2.6e5, type="merge"];
  a2 -> report; m2 -> report; m1 -> report; m0 -> report;
  b5 -> m2; b4 -> m2; b3 -> m1; b2 -> m1; b1 -> m0; b0 -> m0;
  split -> b5; split -> b4; split -> b3; split -> b2;
  split -> b1; split -> b0;
  a2 [work=1.2e7, type="simulate"];
  a1 [work=1.2e7, type="simulate"];
  a0 [work=1.2e7, type="simulate", high=true];
  split -> a0 -> a1 -> a2;
  split [work=5.0e5, type="io", high=true];
  load  [work=1.5e6, bytes=5.2e5, type="io"];
  load -> split;
}
`
	pa := filepath.Join(dir, "demo.dot")
	pb := filepath.Join(dir, "renamed-elsewhere.gv")
	if err := os.WriteFile(pa, []byte(dagio.DemoDOT), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, []byte(shuffled), 0o644); err != nil {
		t.Fatal(err)
	}
	hashOf := func(path string) string {
		g, err := dagio.LoadFile(path, "")
		if err != nil {
			t.Fatal(err)
		}
		s := dagFileSpec(core.All())
		s.Workload.DAG = g
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ha, hb := hashOf(pa), hashOf(pb)
	if ha != hb {
		t.Fatalf("same graph content, different spec hashes:\n%s (from %s)\n%s (from %s)", ha, pa, hb, pb)
	}
	// And the JSON twin of the same graph too.
	jg, err := dagio.LoadFile("../../examples/dag/demo.json", "")
	if err != nil {
		t.Fatal(err)
	}
	s := dagFileSpec(core.All())
	s.Workload.DAG = jg
	hj, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hj != ha {
		t.Fatalf("JSON twin hashes to %s, DOT to %s", hj, ha)
	}
	// Sanity: a real content change must change the hash.
	mut := dagio.Demo()
	mut.Nodes[0].Work += 1
	s = dagFileSpec(core.All())
	s.Workload.DAG = mut
	hm, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hm == ha {
		t.Fatal("graph content change did not change the spec hash")
	}
}

// Canonical round-trip for the new kinds: encode → ParseSpec → encode
// must be a fixed point, and the parsed spec must re-hash identically.
func TestDAGCanonicalRoundTrip(t *testing.T) {
	specs := map[string]Spec{
		"dagfile": dagFileSpec([]core.Policy{core.DAMC(), core.NewSampled(core.DAMC(), 8)}),
		"daggen": {
			Name:     "gen-roundtrip",
			Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelLU, Tiles: 4}, Criticality: CritInferred},
			Policies: []core.Policy{core.RWS()},
			Points:   []Point{{Label: "T4", Tile: 4}, {Label: "T6", Tile: 6}},
			Seed:     7,
		},
	}
	for name, s := range specs {
		s := s
		t.Run(name, func(t *testing.T) {
			cj, err := s.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseSpec(cj)
			if err != nil {
				t.Fatal(err)
			}
			cj2, err := parsed.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(cj) != string(cj2) {
				t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", cj, cj2)
			}
			if err := parsed.Validate(); err != nil {
				t.Fatalf("parsed spec does not validate: %v", err)
			}
		})
	}
}

// An imported DOT graph must run deterministically under every Table-1
// policy: two runs of the same spec, byte-identical fingerprints.
func TestDAGImportDeterminismAllTable1Policies(t *testing.T) {
	for _, pol := range core.All() {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			t.Parallel()
			s := dagFileSpec([]core.Policy{pol})
			s.Name = "dag-determinism-" + pol.Name()
			s.Disturb = []Disturbance{
				{Kind: Burst, Cluster: 1, Share: 0.4, BusyDur: 0.02, IdleDur: 0.04, PhaseStep: 0.01},
			}
			s.Reps = 2
			a, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Fatalf("imported-graph runs diverged under %s", pol.Name())
			}
			if got := int(a.Cells[0][0].Run().TasksDone); got != len(dagio.Demo().Nodes) {
				t.Fatalf("completed %d tasks, want %d", got, len(dagio.Demo().Nodes))
			}
		})
	}
}

// Generated graphs flow through Plan → RunCell → Merge bit-identically,
// and the sweep axis really changes the generated problem size.
func TestDAGGenPlanMergeAndSweep(t *testing.T) {
	s := Spec{
		Name:     "gen-plan",
		Platform: PlatformSpec{Preset: "tx2"},
		Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelCholesky}},
		Policies: []core.Policy{core.RWS(), core.DAMC()},
		Points:   []Point{{Label: "T4", Tile: 4}, {Label: "T6", Tile: 6}},
		Seed:     42,
	}
	direct, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	byHash := map[string]RunMetrics{}
	for _, c := range p.Cells {
		rm, err := p.RunCell(c)
		if err != nil {
			t.Fatal(err)
		}
		byHash[c.Hash] = rm
	}
	merged, err := Merge(p, byHash)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Fingerprint() != merged.Fingerprint() {
		t.Fatal("Plan/RunCell/Merge diverged from Run for a daggen spec")
	}
	// T4 → 20 Cholesky tasks, T6 → 56: the Tile axis drives the grid.
	if a, b := direct.Cells[0][0].Run().TasksDone, direct.Cells[0][1].Run().TasksDone; a != 20 || b != 56 {
		t.Fatalf("task counts (%d, %d), want (20, 56)", a, b)
	}
}

// Priority-annotation variants apply to imported graphs.
func TestDAGCriticalityVariants(t *testing.T) {
	base := dagFileSpec([]core.Policy{core.DAMC()})
	fps := map[string]string{}
	for _, crit := range []string{CritUser, CritInferred, CritNone} {
		s := base
		s.Workload.Criticality = crit
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		fps[crit] = res.Fingerprint()
	}
	if fps[CritUser] == fps[CritNone] {
		t.Error("stripping the demo graph's priority marks changed nothing")
	}
}

func TestDAGValidation(t *testing.T) {
	t.Run("dagfile without graph", func(t *testing.T) {
		s := dagFileSpec(core.All())
		s.Workload.DAG = nil
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "no graph") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("cyclic import", func(t *testing.T) {
		s := dagFileSpec(core.All())
		s.Workload.DAG = &dagio.GraphSpec{
			Nodes: []dagio.Node{{ID: "a", Work: 1}, {ID: "b", Work: 1}},
			Edges: []dagio.Edge{{From: "a", To: "b"}, {From: "b", To: "a"}},
		}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("unknown generator model", func(t *testing.T) {
		s := Spec{
			Name:     "bad-gen",
			Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: "moebius"}},
			Policies: []core.Policy{core.RWS()},
		}
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), "known models") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("shape points on dagfile", func(t *testing.T) {
		s := dagFileSpec(core.All())
		s.Points = []Point{{Label: "P2", Parallelism: 2}}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "graph-shape") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("alpha points allowed on dagfile", func(t *testing.T) {
		s := dagFileSpec(core.All())
		s.Points = []Point{{Label: "a1", Alpha: 0.1}, {Label: "a5", Alpha: 0.5}}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("shape points allowed on daggen", func(t *testing.T) {
		s := Spec{
			Name:     "gen-points",
			Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{Model: dagio.ModelForkJoin}},
			Policies: []core.Policy{core.RWS()},
			Points:   ParallelismPoints(4, 8),
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// ParseSpec's unknown-kind errors must name the offending field and
// enumerate the accepted values (for workloads, disturbances, kernels
// and generator models).
func TestParseSpecErrorsNameFieldAndKnownKinds(t *testing.T) {
	cases := []struct {
		name, doc string
		wants     []string
	}{
		{
			"workload kind",
			`{"workload": {"kind": "sinthetic"}, "policies": ["RWS"]}`,
			[]string{`workload.kind "sinthetic"`, "known kinds:", "synthetic", "kmeans", "heatdist", "dagfile", "daggen"},
		},
		{
			"kernel",
			`{"workload": {"kind": "synthetic", "synthetic": {"kernel": "MatMull", "tile": 64, "sweeps": 1, "tasks": 10, "parallelism": 2}}, "policies": ["RWS"]}`,
			[]string{`workload.synthetic.kernel "MatMull"`, "known kernels:", "MatMul", "Copy", "Stencil"},
		},
		{
			"disturb kind",
			`{"workload": {"kind": "synthetic"}, "disturb": [{"kind": "corun-cpu", "share": 0.5}, {"kind": "quake"}], "policies": ["RWS"]}`,
			[]string{`disturb[1].kind "quake"`, "known kinds:", "corun-cpu", "corun-mem", "dvfs", "stall", "burst", "throttle"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.doc))
			if err == nil {
				t.Fatalf("ParseSpec accepted %s", c.doc)
			}
			for _, w := range c.wants {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// The new families must validate at several scales like the old ones,
// and the import demo family must actually be a DAGFile workload.
func TestDAGFamiliesRegistered(t *testing.T) {
	for _, name := range []string{"cholesky-sweep", "random-layered", "dag-import-demo"} {
		f, ok := Lookup(name)
		if !ok {
			t.Fatalf("family %q not registered", name)
		}
		for _, scale := range []float64{1, 0.1, 0.01} {
			s := f.Spec(scale, DefaultSeed)
			if err := s.Validate(); err != nil {
				t.Errorf("%s at scale %v: %v", name, scale, err)
			}
		}
	}
	if s := mustLookup(t, "dag-import-demo").Spec(1, DefaultSeed); s.Workload.Kind != DAGFile {
		t.Errorf("dag-import-demo is %v, want dagfile", s.Workload.Kind)
	}
	if s := mustLookup(t, "cholesky-sweep").Spec(1, DefaultSeed); s.Workload.Kind != DAGGen {
		t.Errorf("cholesky-sweep is %v, want daggen", s.Workload.Kind)
	}
}

func mustLookup(t *testing.T, name string) Family {
	t.Helper()
	f, ok := Lookup(name)
	if !ok {
		t.Fatalf("family %q not registered", name)
	}
	return f
}

// A tiny cholesky-sweep run end to end, checking the sweep produces a
// full grid (the family smoke used by CI at scale 0.01 mirrors this).
func TestCholeskySweepFamilyRuns(t *testing.T) {
	f := mustLookup(t, "cholesky-sweep")
	s := f.Spec(0.01, DefaultSeed)
	s.Policies = []core.Policy{core.RWS(), core.DAMC()}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 || len(res.Policies) != 2 {
		t.Fatalf("grid %dx%d, want 2x3", len(res.Policies), len(res.Points))
	}
	for pi := range res.Policies {
		for xi := range res.Points {
			if res.Cells[pi][xi].Run().TasksDone == 0 {
				t.Fatalf("cell (%d,%d) completed no tasks", pi, xi)
			}
		}
	}
	if res.Fingerprint() == "" {
		t.Fatal("empty fingerprint")
	}
}

// Golden vectors for the new kinds live beside the existing ones: see
// TestSpecHashGoldenVectors for why these literals must not drift.
func TestDAGSpecHashGoldenVectors(t *testing.T) {
	smallGraph := &dagio.GraphSpec{
		Nodes: []dagio.Node{
			{ID: "b", Work: 2e6, Bytes: 64, Type: "t2"},
			{ID: "a", Work: 1e6, Type: "t1", High: true},
			{ID: "c", Work: 3e6},
		},
		Edges: []dagio.Edge{{From: "a", To: "b"}, {From: "a", To: "c"}},
	}
	vectors := []struct {
		name string
		spec Spec
		want string
	}{
		{
			name: "dagfile",
			spec: Spec{
				Name:     "golden-dagfile",
				Workload: WorkloadSpec{Kind: DAGFile, DAG: smallGraph},
				Policies: []core.Policy{core.DAMC()},
				Seed:     42,
			},
			want: "38800c7ec6111aa1887ad1632eee0f9264b60ea8a78d5295d75a1297c619e302",
		},
		{
			name: "daggen",
			spec: Spec{
				Name:     "golden-daggen",
				Platform: PlatformSpec{Preset: "scaleout-4x4"},
				Workload: WorkloadSpec{Kind: DAGGen, DAGGen: dagio.GenConfig{
					Model: dagio.ModelRandomLayered, Layers: 6, Width: 4, Seed: 9,
				}, Criticality: CritNone},
				Policies: []core.Policy{core.RWS(), core.NewSampled(core.DAMC(), 8)},
				Points:   []Point{{Label: "W4", Parallelism: 4}, {Label: "W8", Parallelism: 8}},
				Reps:     2,
				Seed:     7,
			},
			want: "296f92b8ca766c45e9c95fe669a67337fcc98e991851716d3acc45c7d1641952",
		},
	}
	for _, v := range vectors {
		v := v
		t.Run(v.name, func(t *testing.T) {
			got, err := v.spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if got != v.want {
				cj, _ := v.spec.CanonicalJSON()
				t.Errorf("Spec.Hash = %s, want %s\ncanonical encoding: %s", got, v.want, cj)
			}
		})
	}
}
