package scenario

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

// The paper-shape tests assert the qualitative findings of the paper's
// evaluation (Section 5) against the registered paper families at reduced
// scale. A test narrows a family by editing its spec (points, policies);
// verbose runs also print the family's table and view for eyeballing
// against the paper.

const paperTestScale = 0.08

// runFamily runs a family's spec at a scale and DefaultSeed, after narrow
// (when non-nil) has edited it.
func runFamily(t *testing.T, name string, scale float64, narrow func(*Spec)) (Spec, *Result) {
	t.Helper()
	f, ok := Lookup(name)
	if !ok {
		t.Fatalf("family %q not registered", name)
	}
	s := f.Spec(scale, DefaultSeed)
	if narrow != nil {
		narrow(&s)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		res.WriteTable(os.Stdout)
		if f.View != nil {
			f.View(os.Stdout, s, res)
		}
	}
	return s, res
}

// onlyPoints narrows a spec to the parallelism points ps.
func onlyPoints(ps ...int) func(*Spec) {
	return func(s *Spec) { s.Points = ParallelismPoints(ps...) }
}

// tput is a cell's mean throughput, or 0 when the cell is missing.
func tput(res *Result, policy, label string) float64 {
	if c := res.Cell(policy, label); c != nil {
		return c.MeanThroughput()
	}
	return 0
}

// highShare is the fraction of a policy's high-priority tasks that ran on
// places led by core leader (any width), at the first point.
func highShare(res *Result, policy string, leader int) float64 {
	total := 0.0
	for _, ps := range res.Cell(policy, res.Points[0].Label).Run().HighHist {
		if ps.Place.Leader == leader {
			total += ps.Frac
		}
	}
	return total
}

func TestFig4aShape(t *testing.T) {
	_, res := runFamily(t, "fig4a", paperTestScale, onlyPoints(2, 4, 6))
	rws, fa, damc := tput(res, "RWS", "P2"), tput(res, "FA", "P2"), tput(res, "DAM-C", "P2")
	if !(damc > fa && fa > rws) {
		t.Errorf("P=2 ordering: want DAM-C > FA > RWS, got DAM-C=%.0f FA=%.0f RWS=%.0f", damc, fa, rws)
	}
	if damc < 2*rws {
		t.Errorf("P=2: DAM-C should be ≥2× RWS (paper: up to 3.5×), got %.2f×", damc/rws)
	}
	if damc < 1.5*fa {
		t.Errorf("P=2: DAM-C should be ≥1.5× FA (paper: ~1.9×), got %.2f×", damc/fa)
	}
	// DAM-C saturates early: its P=2 throughput is already ≥70% of its
	// P=6 throughput, while RWS grows roughly linearly with P.
	if d6 := tput(res, "DAM-C", "P6"); damc < 0.7*d6 {
		t.Errorf("DAM-C should saturate early: P=2 %.0f vs P=6 %.0f", damc, d6)
	}
	if r6 := tput(res, "RWS", "P6"); r6 < 2.2*rws {
		t.Errorf("RWS should scale ~linearly with P: P=6 %.0f vs P=2 %.0f", r6, rws)
	}
}

func TestFig5Shape(t *testing.T) {
	_, res := runFamily(t, "fig5", paperTestScale, nil)
	// FA splits critical tasks 50/50 over the Denver cores.
	if s := highShare(res, "FA", 0); s < 0.45 || s > 0.55 {
		t.Errorf("FA core-0 share %.2f, want ~0.5", s)
	}
	// The dynamic schedulers put ≥90% of critical tasks on the clean
	// fast core 1 (paper: 92–98%).
	for _, name := range []string{"DA", "DAM-C", "DAM-P"} {
		if s := highShare(res, name, 1); s < 0.90 {
			t.Errorf("%s core-1 share %.2f, want ≥0.90", name, s)
		}
	}
	// RWS spreads them: no core above 40%.
	for c := 0; c < 6; c++ {
		if s := highShare(res, "RWS", c); s > 0.4 {
			t.Errorf("RWS concentrated %.2f on core %d", s, c)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	_, res := runFamily(t, "fig6", paperTestScale, nil)
	core0 := func(policy string) float64 { return res.Cell(policy, "P2").Run().CoreBusy[0] }
	// FA pins half the critical tasks to the interfered core 0, so its
	// core-0 work time is the highest across schedulers (paper Fig. 6).
	fa := core0("FA")
	for _, name := range []string{"RWS", "DA", "DAM-C", "DAM-P"} {
		if other := core0(name); other >= fa {
			t.Errorf("%s core-0 time %.2f ≥ FA %.2f", name, other, fa)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	_, res := runFamily(t, "fig7a", paperTestScale, onlyPoints(2, 6))
	damp := tput(res, "DAM-P", "P2")
	// Dynamic schedulers beat the fixed and random families under DVFS.
	for _, name := range []string{"RWS", "FA"} {
		if other := tput(res, name, "P2"); damp <= other {
			t.Errorf("DAM-P (%.0f) not above %s (%.0f) at P=2 under DVFS", damp, name, other)
		}
	}
	// DAM-P ≥ DAM-C at low parallelism (the paper's key DVFS finding:
	// minimizing time beats minimizing cost when parallelism is scarce).
	if damc := tput(res, "DAM-C", "P2"); damp < damc {
		t.Errorf("DAM-P (%.0f) below DAM-C (%.0f) at P=2 under DVFS", damp, damc)
	}
}

func TestFig8Shape(t *testing.T) {
	_, res := runFamily(t, "fig8", paperTestScale, nil)
	// The points are tile-major: 4 tiles × 5 PTT weights.
	tp := res.Throughputs()[0]
	const alphas = 5
	tiles := len(tp) / alphas
	spread := func(tile int) float64 {
		row := tp[tile*alphas : (tile+1)*alphas]
		lo, hi := row[0], row[0]
		for _, v := range row {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if hi == 0 {
			return 0
		}
		return (hi - lo) / hi
	}
	// The PTT weight only matters for the smallest tile: its spread is
	// the largest, and the large tiles stay comparatively flat (paper:
	// ~36% for tile 32, stable above).
	small := spread(0)
	for i := 1; i < tiles; i++ {
		if s := spread(i); s > small {
			t.Errorf("%s spread %.2f exceeds tile 32 spread %.2f", res.Points[i*alphas].Label, s, small)
		}
	}
	if small < 0.05 {
		t.Errorf("tile 32 spread %.3f too small — weight ratio should matter", small)
	}
	// Throughput decreases with tile size (cubic work growth).
	if tp[0] <= tp[(tiles-1)*alphas] {
		t.Error("throughput did not decrease with tile size")
	}
}

// fig9Window is the interference interval [from, to) in seconds and the
// calibrated uninterfered iteration time of a Figure 9 spec.
func fig9Window(s Spec) (from, to, avg float64) {
	from, to = s.Disturb[0].From, s.Disturb[0].To
	return from, to, from / fig9From
}

// settledIterTime is a policy's mean iteration time over iterations fully
// inside the interference window, past the adaptation transient (the PTT
// needs a few observations before placements migrate).
func settledIterTime(s Spec, res *Result, policy string) float64 {
	from, to, avg := fig9Window(s)
	sum, n := 0.0, 0
	for _, st := range res.Cell(policy, res.Points[0].Label).Run().Iters {
		if st.Start >= from+4*avg && st.End <= to {
			sum += st.End - st.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// wideShare is the fraction of a policy's tasks that ran at width > 1 in
// iterations overlapping the interference window (Figure 9c's molding).
func wideShare(s Spec, res *Result, policy string) float64 {
	from, to, _ := fig9Window(s)
	places := res.Topo.Places()
	var wide, total int64
	for _, st := range res.Cell(policy, res.Points[0].Label).Run().Iters {
		if st.End <= from || st.Start >= to {
			continue
		}
		for id, n := range st.Places {
			total += n
			if places[id].Width > 1 {
				wide += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wide) / float64(total)
}

func TestFig9Shape(t *testing.T) {
	s, res := runFamily(t, "fig9a", paperTestScale, nil)
	// Inside the interference window the dynamic schedulers stay close to
	// their uninterfered pace while RWS degrades markedly (paper: DAM-P
	// best during interference, RWS worst with heavy wobble).
	rws := settledIterTime(s, res, "RWS")
	damc := settledIterTime(s, res, "DAM-C")
	damp := settledIterTime(s, res, "DAM-P")
	if !(damc < rws && damp < rws) {
		t.Errorf("window iteration times: want DAM-C, DAM-P < RWS, got DAM-P=%.3g DAM-C=%.3g RWS=%.3g", damp, damc, rws)
	}
	if rws < 1.10*damc {
		t.Errorf("RWS should degrade ≥10%% vs DAM-C inside the window: RWS=%.3g DAM-C=%.3g", rws, damc)
	}
	if damp > 1.20*damc {
		t.Errorf("DAM-P should stay close to DAM-C inside the window: DAM-P=%.3g DAM-C=%.3g", damp, damc)
	}
	// DAM-P molds during interference (Figure 9c shows wide places).
	if ws := wideShare(s, res, "DAM-P"); ws <= 0 {
		t.Errorf("DAM-P should use wide places during interference, wide share = %.3f", ws)
	}
}

// The three Figure 9 families share one run and differ in their views;
// a view whose policy is missing from the run says so instead of failing.
func TestFig9Render(t *testing.T) {
	s, res := runFamily(t, "fig9a", 0.05, nil)
	for name, want := range map[string]string{
		"fig9a": "# Figure 9a: K-means per-iteration time",
		"fig9b": "# Figure 9 (RWS): task count per execution place",
		"fig9c": "# Figure 9 (DAM-P): task count per execution place",
	} {
		var buf bytes.Buffer
		mustLookup(t, name).View(&buf, s, res)
		if !strings.HasPrefix(buf.String(), want) || strings.Count(buf.String(), "\n") < fig9Iters {
			t.Errorf("%s view: want %q and a row per iteration, got %d bytes", name, want, buf.Len())
		}
	}
	res.Policies = res.Policies[:1]
	var buf bytes.Buffer
	mustLookup(t, "fig9c").View(&buf, s, res)
	if !strings.Contains(buf.String(), "not in this run") {
		t.Errorf("fig9c view without DAM-P: %q", buf.String())
	}
}

func TestFig10Shape(t *testing.T) {
	_, res := runFamily(t, "fig10", 0.5, nil)
	get := func(policy string) float64 { return tput(res, policy, res.Points[0].Label) }
	rws, rwsm := get("RWS"), get("RWSM-C")
	da, damc, damp := get("DA"), get("DAM-C"), get("DAM-P")
	if !(damc > rwsm && rwsm > rws) {
		t.Errorf("want DAM-C > RWSM-C > RWS, got DAM-C=%.0f RWSM-C=%.0f RWS=%.0f", damc, rwsm, rws)
	}
	if !(damc > da && damp > da) {
		t.Errorf("moldability should help Heat: want DAM-C, DAM-P > DA, got DAM-C=%.0f DAM-P=%.0f DA=%.0f", damc, damp, da)
	}
}

func TestAblationSteal(t *testing.T) {
	_, res := runFamily(t, "ablation-steal", paperTestScale, onlyPoints(2))
	// Allowing critical tasks to be stolen voids the placement guarantee
	// and should not help DAM-C under interference.
	if steal, base := tput(res, "DAM-C+steal", "P2"), tput(res, "DAM-C", "P2"); steal > base*1.05 {
		t.Errorf("stealing critical tasks helped: %.0f vs %.0f", steal, base)
	}
}

func TestAblationWake(t *testing.T) {
	_, res := runFamily(t, "ablation-wake", paperTestScale, onlyPoints(2))
	// Without wake-time routing critical tasks still get re-placed at
	// dispatch; the variant must run to completion.
	if tput(res, "DAM-C-wake", "P2") <= 0 {
		t.Fatal("wake ablation produced no throughput")
	}
}

func TestAblationDHEFT(t *testing.T) {
	_, res := runFamily(t, "ablation-dheft", paperTestScale, onlyPoints(2))
	// dHEFT places every task by earliest finish time; under interference
	// it should comfortably beat RWS.
	if dheft, rws := tput(res, "dHEFT", "P2"), tput(res, "RWS", "P2"); dheft <= rws {
		t.Errorf("dHEFT (%.0f) not above RWS (%.0f)", dheft, rws)
	}
}

func TestAblationAlphaRuns(t *testing.T) {
	_, res := runFamily(t, "ablation-alpha", 0.03, nil)
	if len(res.Points) != 5 {
		t.Fatalf("%d alpha points", len(res.Points))
	}
	for xi, v := range res.Throughputs()[0] {
		if v <= 0 {
			t.Fatalf("%s throughput %g", res.Points[xi].Label, v)
		}
	}
}

func TestAblationWidthRuns(t *testing.T) {
	for _, name := range []string{"ablation-width-cap1", "ablation-width-cap0"} {
		_, res := runFamily(t, name, 0.03, nil)
		if len(res.Policies) != 2 || len(res.Points) != 2 {
			t.Fatalf("%s grid %dx%d, want 2x2", name, len(res.Policies), len(res.Points))
		}
	}
}

func TestAblationInfer(t *testing.T) {
	p2 := func(name string) float64 {
		_, res := runFamily(t, name, paperTestScale, onlyPoints(2))
		return tput(res, "DAM-C", "P2")
	}
	user, inferred, none := p2("ablation-infer-user"), p2("ablation-infer-inferred"), p2("ablation-infer-none")
	// CATS-style inference recovers the user annotations on the layered
	// DAG (the critical chain is its unique critical path)...
	if inferred < 0.95*user {
		t.Errorf("inferred criticality (%.0f) underperforms user annotations (%.0f)", inferred, user)
	}
	// ...and criticality knowledge is the main lever: without it DAM-C
	// degrades toward RWS.
	if none > 0.6*user {
		t.Errorf("priority-free run (%.0f) too close to annotated run (%.0f)", none, user)
	}
}

// Every family's spec must survive the canonical codec — the wire format
// of asymd submissions and remote shards — with its hash intact.
func TestFamiliesRoundTripCanonical(t *testing.T) {
	for _, name := range Names() {
		s := mustLookup(t, name).Spec(0.05, DefaultSeed)
		doc, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ParseSpec(doc)
		if err != nil {
			t.Fatalf("%s: ParseSpec: %v", name, err)
		}
		h1, err1 := s.Hash()
		h2, err2 := back.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Errorf("%s: hash %s (%v) became %s (%v) after the round trip", name, h1, err1, h2, err2)
		}
	}
}

func TestScaleTasks(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		want  int
	}{{0, 100}, {1, 100}, {0.1, 10}, {0.01, 10}} {
		if got := scaled(100, tc.scale, 10); got != tc.want {
			t.Errorf("scaled(100, %v, 10) = %d, want %d", tc.scale, got, tc.want)
		}
	}
}

func TestCheckScale(t *testing.T) {
	for _, ok := range []float64{0, 0.05, 1} {
		if err := CheckScale(ok); err != nil {
			t.Errorf("CheckScale(%v): %v", ok, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5} {
		if err := CheckScale(bad); err == nil || !strings.Contains(err.Error(), "[0, 1]") {
			t.Errorf("CheckScale(%v) = %v, want an error naming [0, 1]", bad, err)
		}
	}
}
