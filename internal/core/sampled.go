package core

import "dynasym/internal/topology"

// Sampled wraps a dynamic-asymmetry policy and replaces its exhaustive
// global PTT search with a sampled one: each decision scans the task's
// home cluster's places plus K pseudo-random other places and the
// best-known place so far. The paper measures ~1 µs for a full-table scan
// on the 6-core TX2 and explicitly leaves "the design and evaluation of
// scalable performance prediction models" as future work; this is that
// extension — O(K) decisions on many-core platforms at a small placement
// quality cost (quantified by BenchmarkSampledSearch).
type Sampled struct {
	Policy
	// K is the number of random candidate places per decision (≥1).
	K int
}

// NewSampled wraps a policy; k ≤ 0 defaults to 8.
func NewSampled(p Policy, k int) Sampled {
	if k <= 0 {
		k = 8
	}
	return Sampled{Policy: p, K: k}
}

// Name labels the wrapper.
func (s Sampled) Name() string { return s.Policy.Name() + "~" + itoa(s.K) }

// WakePlace mirrors DispatchPlace for high-priority tasks.
func (s Sampled) WakePlace(ctx *Context) (int, bool) {
	if !ctx.High {
		return s.Policy.WakePlace(ctx)
	}
	pl := s.DispatchPlace(ctx)
	return pl.Leader, true
}

// DispatchPlace performs the sampled global search for high-priority tasks
// and defers to the wrapped policy otherwise. The objective matches the
// wrapped policy's: min cost for DAM-C-like policies, min time for
// DAM-P-like ones, inferred from the wrapped policy's own decision on a
// two-place comparison is not possible generically, so Sampled keeps the
// paper's cost objective unless the wrapped policy is DAM-P.
func (s Sampled) DispatchPlace(ctx *Context) topology.Place {
	if !ctx.High || ctx.Table == nil {
		return s.Policy.DispatchPlace(ctx)
	}
	minCost := s.Policy.Name() != "DAM-P"
	t := ctx.Table
	places := ctx.Topo.Places()
	// Candidate set: local cluster places + K random samples, compared by
	// dense place id (a place's index in Places is its id) so each probe is
	// one table load. Unmeasured candidates keep the exploration property
	// within the sample.
	scoreID := func(id int) float64 {
		v := t.ValueByID(id)
		if minCost {
			v *= float64(places[id].Width)
		}
		return v
	}
	local := ctx.Topo.LocalPlaceIDs(ctx.Self)
	bestID := int(local[0]) // widths ascend, so entry 0 is (Self, 1)
	bestScore := scoreID(bestID)
	for _, cid := range local[1:] {
		if sc := scoreID(int(cid)); sc < bestScore {
			bestID, bestScore = int(cid), sc
		}
	}
	for i := 0; i < s.K; i++ {
		if id := ctx.Rand.Intn(len(places)); scoreID(id) < bestScore {
			bestID = id
			bestScore = scoreID(id)
		}
	}
	return places[bestID]
}

// stealablePolicy wraps a policy and re-enables stealing of high-priority
// tasks, ablating the paper's "disable stealing of high priority tasks"
// rule. It is named "<base>+steal".
type stealablePolicy struct{ Policy }

// WithPrioritySteal returns p with stealing of high-priority tasks
// allowed.
func WithPrioritySteal(p Policy) Policy { return stealablePolicy{p} }

func (p stealablePolicy) Name() string             { return p.Policy.Name() + "+steal" }
func (p stealablePolicy) AllowPrioritySteal() bool { return true }

// noWakePolicy wraps a policy and disables wake-time routing, leaving only
// the dispatch-time decision: newly ready critical tasks stay on the
// waking worker's queue. It is named "<base>-wake".
type noWakePolicy struct{ Policy }

// WithoutWake returns p with wake-time routing disabled.
func WithoutWake(p Policy) Policy { return noWakePolicy{p} }

func (p noWakePolicy) Name() string                   { return p.Policy.Name() + "-wake" }
func (p noWakePolicy) WakePlace(*Context) (int, bool) { return 0, false }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
