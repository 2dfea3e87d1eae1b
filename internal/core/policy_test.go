package core

import (
	"sync/atomic"
	"testing"

	"dynasym/internal/ptt"
	"dynasym/internal/topology"
	"dynasym/internal/xrand"
)

// trainedTable fills a TX2 PTT with synthetic measurements: core 0 slow
// (interfered Denver), core 1 fast, A57 cores middling, wide places per a
// simple width model.
func trainedTable(topo *topology.Platform) *ptt.Table {
	tbl := ptt.NewTable(topo, 1) // alpha 1: store values directly
	values := map[topology.Place]float64{
		{Leader: 0, Width: 1}: 2.0,
		{Leader: 1, Width: 1}: 1.0,
		{Leader: 0, Width: 2}: 1.8,
		{Leader: 2, Width: 1}: 4.0,
		{Leader: 3, Width: 1}: 4.0,
		{Leader: 4, Width: 1}: 4.0,
		{Leader: 5, Width: 1}: 4.0,
		{Leader: 2, Width: 2}: 2.4,
		{Leader: 4, Width: 2}: 2.4,
		{Leader: 2, Width: 4}: 1.5,
	}
	for pl, v := range values {
		tbl.Update(pl, v)
	}
	return tbl
}

func ctxFor(topo *topology.Platform, tbl *ptt.Table, self int, high bool) *Context {
	return &Context{
		Self:  self,
		High:  high,
		Type:  0,
		Table: tbl,
		Topo:  topo,
		Rand:  xrand.New(1),
		RR:    &atomic.Uint64{},
	}
}

func TestRWSDispatchIsSelfWidth1(t *testing.T) {
	topo := topology.TX2()
	p := RWS()
	for _, self := range []int{0, 3, 5} {
		pl := p.DispatchPlace(ctxFor(topo, nil, self, true))
		if pl.Leader != self || pl.Width != 1 {
			t.Fatalf("RWS dispatch from %d = %v", self, pl)
		}
	}
	if _, ok := p.WakePlace(ctxFor(topo, nil, 2, true)); ok {
		t.Fatal("RWS should have no wake preference")
	}
	if !p.AllowPrioritySteal() || p.UsesPTT() || p.Moldable() {
		t.Fatal("RWS feature flags wrong")
	}
}

func TestRWSMCLocalSearch(t *testing.T) {
	topo := topology.TX2()
	tbl := trainedTable(topo)
	p := RWSMC()
	// At A57 core 3: options (3,1)=4.0 cost 4, (2,2)=2.4 cost 4.8,
	// (2,4)=1.5 cost 6 — width 1 wins on cost.
	pl := p.DispatchPlace(ctxFor(topo, tbl, 3, false))
	if pl != (topology.Place{Leader: 3, Width: 1}) {
		t.Fatalf("RWSM-C local search = %v", pl)
	}
	if !p.AllowPrioritySteal() {
		t.Fatal("RWSM-C must ignore priority for stealing")
	}
}

func TestLocalSearchPrefersCheaperWidth(t *testing.T) {
	topo := topology.TX2()
	tbl := ptt.NewTable(topo, 1)
	// Superlinear speedup: width 4 is 6× faster → cost 4×(4/6) < 4.
	tbl.Update(topology.Place{Leader: 2, Width: 1}, 4.0)
	tbl.Update(topology.Place{Leader: 3, Width: 1}, 4.0)
	tbl.Update(topology.Place{Leader: 2, Width: 2}, 2.2)
	tbl.Update(topology.Place{Leader: 2, Width: 4}, 0.66)
	p := RWSMC()
	pl := p.DispatchPlace(ctxFor(topo, tbl, 3, false))
	if pl != (topology.Place{Leader: 2, Width: 4}) {
		t.Fatalf("local search missed superlinear width: %v", pl)
	}
}

func TestFARoundRobinOverFastCluster(t *testing.T) {
	topo := topology.TX2()
	p := FA()
	ctx := ctxFor(topo, nil, 4, true)
	seen := map[int]int{}
	for i := 0; i < 10; i++ {
		leader, ok := p.WakePlace(ctx)
		if !ok {
			t.Fatal("FA must route high tasks")
		}
		seen[leader]++
	}
	if seen[0] != 5 || seen[1] != 5 {
		t.Fatalf("FA distribution over Denver cores = %v, want 5/5", seen)
	}
	// Low tasks stay put.
	if _, ok := p.WakePlace(ctxFor(topo, nil, 4, false)); ok {
		t.Fatal("FA must not route low tasks")
	}
	// Dispatch at the fast core is width 1.
	pl := p.DispatchPlace(ctxFor(topo, nil, 0, true))
	if pl != (topology.Place{Leader: 0, Width: 1}) {
		t.Fatalf("FA dispatch = %v", pl)
	}
}

func TestFAMCMoldsAtFastCore(t *testing.T) {
	topo := topology.TX2()
	tbl := ptt.NewTable(topo, 1)
	// Make (0,2) the cheapest option at core 0: 0.9×2 < 2.0×1.
	tbl.Update(topology.Place{Leader: 0, Width: 1}, 2.0)
	tbl.Update(topology.Place{Leader: 0, Width: 2}, 0.9)
	tbl.Update(topology.Place{Leader: 1, Width: 1}, 1.0)
	p := FAMC()
	pl := p.DispatchPlace(ctxFor(topo, tbl, 0, true))
	if pl != (topology.Place{Leader: 0, Width: 2}) {
		t.Fatalf("FAM-C high dispatch = %v, want (C0,2)", pl)
	}
}

func TestDAGlobalMinTimeWidthOne(t *testing.T) {
	topo := topology.TX2()
	tbl := trainedTable(topo)
	p := DA()
	// Global width-1 minimum is core 1 (1.0) even though (2,4) has the
	// lowest time overall — DA cannot mold.
	pl := p.DispatchPlace(ctxFor(topo, tbl, 4, true))
	if pl != (topology.Place{Leader: 1, Width: 1}) {
		t.Fatalf("DA high dispatch = %v, want (C1,1)", pl)
	}
	leader, ok := p.WakePlace(ctxFor(topo, tbl, 4, true))
	if !ok || leader != 1 {
		t.Fatalf("DA wake = %d,%v", leader, ok)
	}
	// Low tasks: width 1, stay local.
	pl = p.DispatchPlace(ctxFor(topo, tbl, 4, false))
	if pl != (topology.Place{Leader: 4, Width: 1}) {
		t.Fatalf("DA low dispatch = %v", pl)
	}
	if p.Moldable() {
		t.Fatal("DA must not be moldable")
	}
}

func TestDAMCMinCostVsDAMPMinTime(t *testing.T) {
	topo := topology.TX2()
	tbl := trainedTable(topo)
	// Costs: (1,1)=1.0; (2,4)=1.5×4=6.0. Times: (2,4)=1.5 > (1,1)=1.0.
	damc := DAMC().DispatchPlace(ctxFor(topo, tbl, 4, true))
	if damc != (topology.Place{Leader: 1, Width: 1}) {
		t.Fatalf("DAM-C high = %v, want (C1,1)", damc)
	}
	// Make the wide place the fastest.
	tbl.Update(topology.Place{Leader: 2, Width: 4}, 0.5)
	damp := DAMP().DispatchPlace(ctxFor(topo, tbl, 4, true))
	if damp != (topology.Place{Leader: 2, Width: 4}) {
		t.Fatalf("DAM-P high = %v, want (C2,4)", damp)
	}
	// DAM-C still prefers the cheap narrow place (cost 2.0 vs 1.0).
	damc = DAMC().DispatchPlace(ctxFor(topo, tbl, 4, true))
	if damc != (topology.Place{Leader: 1, Width: 1}) {
		t.Fatalf("DAM-C after update = %v, want (C1,1)", damc)
	}
}

func TestZeroEntryExploration(t *testing.T) {
	topo := topology.TX2()
	tbl := ptt.NewTable(topo, 0) // empty: everything unexplored
	pl := DAMC().DispatchPlace(ctxFor(topo, tbl, 4, true))
	// With all entries zero the first place in platform order wins.
	if pl != topo.Places()[0] {
		t.Fatalf("exploration pick = %v, want first place %v", pl, topo.Places()[0])
	}
	// After measuring every place but one, the remaining zero entry wins.
	for _, p := range topo.Places() {
		if p != (topology.Place{Leader: 4, Width: 2}) {
			tbl.Update(p, 1.0)
		}
	}
	pl = DAMC().DispatchPlace(ctxFor(topo, tbl, 4, true))
	if pl != (topology.Place{Leader: 4, Width: 2}) {
		t.Fatalf("unexplored place not chosen: %v", pl)
	}
}

func TestPriorityStealFlags(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want bool
	}{
		{RWS(), true}, {RWSMC(), true},
		{FA(), false}, {FAMC(), false},
		{DA(), false}, {DAMC(), false}, {DAMP(), false},
	} {
		if tc.p.AllowPrioritySteal() != tc.want {
			t.Errorf("%s AllowPrioritySteal = %v, want %v", tc.p.Name(), tc.p.AllowPrioritySteal(), tc.want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"RWS", "RWSM-C", "FA", "FAM-C", "DA", "DAM-C", "DAM-P", "dHEFT"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// The ablation wrappers must round-trip through their names, alone and
// stacked with the sampled search, so specs that use them survive the
// canonical codec and the shard wire.
func TestByNameAblationWrappers(t *testing.T) {
	for _, name := range []string{"DAM-C+steal", "DAM-P+steal", "DAM-C-wake", "DA-wake", "DAM-C~4+steal", "DAM-C-wake~8"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	steal, _ := ByName("DAM-C+steal")
	if !steal.AllowPrioritySteal() || DAMC().AllowPrioritySteal() {
		t.Error("+steal did not re-enable priority stealing")
	}
	wake, _ := ByName("DAM-C-wake")
	if _, ok := wake.WakePlace(nil); ok {
		t.Error("-wake still routes at wake time")
	}
	for _, bad := range []string{"+steal", "nope+steal", "nope-wake", "DAM-C+steal~x"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}

func TestAllOrder(t *testing.T) {
	want := []string{"RWS", "RWSM-C", "FA", "FAM-C", "DA", "DAM-C", "DAM-P"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d policies", len(got))
	}
	for i, p := range got {
		if p.Name() != want[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, p.Name(), want[i])
		}
	}
}

func TestDHEFTUsesLoad(t *testing.T) {
	topo := topology.TX2()
	tbl := ptt.NewTable(topo, 1)
	for _, pl := range topo.Places() {
		if pl.Width == 1 {
			tbl.Update(pl, 1.0)
		}
	}
	busy := map[int]float64{1: 5.0} // core 1 heavily loaded
	ctx := ctxFor(topo, tbl, 3, true)
	ctx.Load = func(c int) float64 { return busy[c] }
	pl := DHEFT().DispatchPlace(ctx)
	if pl.Leader == 1 {
		t.Fatal("dHEFT chose the loaded core")
	}
	if pl.Width != 1 {
		t.Fatalf("dHEFT width = %d", pl.Width)
	}
}

func TestFeaturesTable(t *testing.T) {
	f := FeaturesOf(DAMP())
	if f.Asymmetry != "Dynamic" || f.Mold != "Yes" || f.Placement != "Performance" {
		t.Fatalf("DAM-P features = %+v", f)
	}
}

func BenchmarkGlobalSearch(b *testing.B) {
	topo := topology.HaswellClusterN(1)
	tbl := ptt.NewTable(topo, 0)
	for _, pl := range topo.Places() {
		tbl.Update(pl, 1.0)
	}
	ctx := ctxFor(topo, tbl, 3, true)
	p := DAMC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.DispatchPlace(ctx)
	}
}

func BenchmarkLocalSearch(b *testing.B) {
	topo := topology.TX2()
	tbl := trainedTable(topo)
	ctx := ctxFor(topo, tbl, 3, false)
	p := DAMC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.DispatchPlace(ctx)
	}
}
