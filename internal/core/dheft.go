package core

import (
	"strconv"
	"strings"

	"dynasym/internal/topology"
)

// dheft implements a dynamic Heterogeneous-Earliest-Finish-Time baseline in
// the spirit of Chronaki et al.'s dHEFT (used by the paper's related work
// as the reference for CATS): every task — regardless of priority — is
// placed on the single core that minimizes its estimated finish time,
// where task run times are discovered online through the PTT rather than
// known in advance.
//
// Estimated finish time for core c is
//
//	EFT(c) = load(c) + PTT(c, 1)
//
// with load(c) supplied by the runtime (earliest time core c can start new
// work, 0 when unknown). Unmeasured cores are explored first, like every
// PTT search in this package. dHEFT is not part of the paper's Table 1; it
// exists as an extension baseline for the ablation-dheft scenario family.
type dheft struct{}

func (dheft) Name() string             { return "dHEFT" }
func (dheft) UsesPTT() bool            { return true }
func (dheft) AllowPrioritySteal() bool { return false }
func (dheft) Moldable() bool           { return false }

// WakePlace routes every task to its earliest-finishing core.
func (d dheft) WakePlace(ctx *Context) (int, bool) {
	pl := d.DispatchPlace(ctx)
	return pl.Leader, true
}

// DispatchPlace scans width-1 places minimizing load + predicted time.
func (dheft) DispatchPlace(ctx *Context) topology.Place {
	best := topology.Place{Leader: ctx.Self, Width: 1}
	bestScore := -1.0
	for _, pl := range ctx.Topo.Places() {
		if pl.Width != 1 {
			continue
		}
		v := ctx.Table.Value(pl)
		if v == 0 {
			// Unmeasured: explore immediately.
			return pl
		}
		s := v
		if ctx.Load != nil {
			s += ctx.Load(pl.Leader)
		}
		if bestScore < 0 || s < bestScore {
			best, bestScore = pl, s
		}
	}
	return best
}

// DHEFT returns the dHEFT baseline policy.
func DHEFT() Policy { return dheft{} }

func extraByName(name string) (Policy, bool) {
	if name == "dHEFT" {
		return DHEFT(), true
	}
	// "<base>+steal" and "<base>-wake" select the ablation wrappers,
	// e.g. "DAM-C+steal"; the suffix is peeled off before any "~K".
	for _, w := range []struct {
		suffix string
		wrap   func(Policy) Policy
	}{{"+steal", WithPrioritySteal}, {"-wake", WithoutWake}} {
		if base, ok := strings.CutSuffix(name, w.suffix); ok {
			p, err := ByName(base)
			if err != nil {
				return nil, false
			}
			return w.wrap(p), true
		}
	}
	// "<base>~<K>" selects the sampled O(K) search wrapper, e.g. "DAM-C~8".
	if i := strings.LastIndex(name, "~"); i > 0 {
		k, err := strconv.Atoi(name[i+1:])
		if err != nil || k < 1 {
			return nil, false
		}
		base, err := ByName(name[:i])
		if err != nil {
			return nil, false
		}
		return NewSampled(base, k), true
	}
	return nil, false
}
