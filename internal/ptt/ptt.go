// Package ptt implements the Performance Trace Table, the online
// per-task-type performance model from the paper (Section 4.1.1) and from
// Rohlin et al. (HIP3ES 2019).
//
// One Table exists per task type. Each entry corresponds to one valid
// execution place (core, width) of the platform and holds a weighted moving
// average of execution times observed by the leader core of that place.
// Entries are initialized to zero, which the schedulers interpret as
// "unmeasured": a zero entry always wins a minimizing search, so every place
// is explored at least once before the model steers placement.
//
// The default update rule matches the paper's sensitivity analysis winner:
//
//	updated = (4*old + 1*new) / 5
//
// Tables are safe for concurrent use: the real runtime has one goroutine per
// worker updating entries after each task, exactly like XiTAO's workers.
package ptt

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"dynasym/internal/topology"
)

// TypeID identifies a task type. Each function implemented as a task gets
// its own TypeID and therefore its own Table, because per-place performance
// varies per type.
type TypeID int

// Table is the Performance Trace Table for one task type.
//
// The paper lays out rows per core so each worker touches one cache line;
// in Go we keep a flat slice indexed by dense place id, with one atomic
// word per entry, which gives the same property: distinct places never
// share a word, and a worker's local places are contiguous.
type Table struct {
	topo *topology.Platform
	// alpha is the weight of the new observation (paper: 1/5);
	// oneMinusAlpha is its precomputed complement so the update rule is one
	// fused multiply-add per observation.
	alpha         float64
	oneMinusAlpha float64
	// entries[placeID] holds the float64 bits of the weighted average.
	entries []atomic.Uint64
	// counts[placeID] counts updates, for diagnostics and reports.
	counts []atomic.Uint64
	// gen counts successful updates, starting at 1, and stamps the cached
	// best-place words below: a cache word whose stamp equals gen reflects
	// the current entries; any update (or Reset) invalidates every cache by
	// bumping gen. Schedulers query a best place on each dispatch decision
	// but the table only changes on task completion, so between completions
	// the minimizing searches collapse to one atomic load.
	gen atomic.Uint64
	// Cached minimizing-search results, packed gen<<bestIDBits | (id+1);
	// zero means never computed. bestLocalCost is indexed by core.
	bestCostAll   atomic.Uint64
	bestTimeAll   atomic.Uint64
	bestW1        atomic.Uint64
	bestLocalCost []atomic.Uint64
}

// DefaultAlpha is the paper's chosen new-sample weight (ratio 1:4).
const DefaultAlpha = 1.0 / 5.0

// NewTable builds an empty table for the platform. alpha is the weight given
// to new observations, in (0, 1]; alpha==1 replaces the entry outright
// (the "1" configuration of Figure 8). Passing alpha <= 0 selects
// DefaultAlpha.
func NewTable(topo *topology.Platform, alpha float64) *Table {
	t := &Table{}
	t.adopt(topo, alpha)
	return t
}

// clampAlpha normalizes a configured new-observation weight: non-positive
// selects the paper's default, values above 1 saturate.
func clampAlpha(alpha float64) float64 {
	if alpha <= 0 {
		return DefaultAlpha
	}
	if alpha > 1 {
		return 1
	}
	return alpha
}

// Platform returns the platform the table is indexed by.
func (t *Table) Platform() *topology.Platform { return t.topo }

// Value returns the current estimate for the place, in seconds. Zero means
// the place has never been measured.
func (t *Table) Value(pl topology.Place) float64 {
	id := t.topo.PlaceID(pl)
	if id < 0 {
		return math.Inf(1)
	}
	return t.ValueByID(id)
}

// ValueByID returns the estimate for a dense place id.
func (t *Table) ValueByID(id int) float64 {
	return math.Float64frombits(t.entries[id].Load())
}

// Count returns how many observations the place has received.
func (t *Table) Count(pl topology.Place) uint64 {
	id := t.topo.PlaceID(pl)
	if id < 0 {
		return 0
	}
	return t.counts[id].Load()
}

// Update folds a new observation (seconds) into the entry for the place
// using the weighted-average rule. The first observation is stored directly
// rather than averaged with the zero initializer, so the entry reflects a
// real measurement as soon as one exists. Non-positive and non-finite
// observations are ignored.
func (t *Table) Update(pl topology.Place, observed float64) {
	t.UpdateByID(t.topo.PlaceID(pl), observed)
}

// UpdateByID is Update for a dense place id, skipping place resolution —
// the simulated runtime resolves the id once at dispatch and completion
// reuses it. Negative ids are ignored like invalid places.
func (t *Table) UpdateByID(id int, observed float64) {
	if id < 0 || observed <= 0 || math.IsInf(observed, 0) || math.IsNaN(observed) {
		return
	}
	e := &t.entries[id]
	for {
		oldBits := e.Load()
		old := math.Float64frombits(oldBits)
		next := observed
		if old != 0 {
			next = t.oneMinusAlpha*old + t.alpha*observed
		}
		if e.CompareAndSwap(oldBits, math.Float64bits(next)) {
			t.counts[id].Add(1)
			t.gen.Add(1)
			return
		}
	}
}

// Reset clears every entry back to the unmeasured state.
func (t *Table) Reset() {
	for i := range t.entries {
		t.entries[i].Store(0)
		t.counts[i].Store(0)
	}
	// Bumping (never rewinding) the generation invalidates the cached best
	// words: a stamp from before the Reset can never match again.
	t.gen.Add(1)
}

// adopt rebinds the table to a (possibly different) platform and alpha and
// clears it, reusing the entry storage when the shapes match. NewTable is
// adopt on a zero table, whose Reset takes gen from 0 to 1. adopt must not
// race concurrent readers; registries only call it between runs via
// Registry.Reset.
func (t *Table) adopt(topo *topology.Platform, alpha float64) {
	t.topo = topo
	t.alpha = clampAlpha(alpha)
	t.oneMinusAlpha = 1 - t.alpha
	if n := len(topo.Places()); n != len(t.entries) {
		t.entries = make([]atomic.Uint64, n)
		t.counts = make([]atomic.Uint64, n)
	}
	if n := topo.NumCores(); n != len(t.bestLocalCost) {
		t.bestLocalCost = make([]atomic.Uint64, n)
	}
	// Stale best-place cache words need no clearing: the generation bump in
	// Reset outdates every stamp they could carry.
	t.Reset()
}

// bestIDBits is the width of the place-id field in a packed best-place
// cache word. Platforms with ≥ 2^16-1 places simply skip caching.
const bestIDBits = 16

// BestGlobalCost returns the dense id of the place minimizing estimate ×
// width over every place (the paper's global resource-cost search). Zero
// (unmeasured) entries score zero and therefore always win, and ties keep
// the lowest id — the exploration and determinism rules the schedulers
// rely on. The result is cached against the update generation.
func (t *Table) BestGlobalCost() int { return t.cachedGlobal(&t.bestCostAll, true, false) }

// BestGlobalTime is BestGlobalCost minimizing the raw estimate (the
// paper's parallel-performance objective).
func (t *Table) BestGlobalTime() int { return t.cachedGlobal(&t.bestTimeAll, false, false) }

// BestGlobalW1 minimizes over width-1 places only, where cost and time
// coincide.
func (t *Table) BestGlobalW1() int { return t.cachedGlobal(&t.bestW1, false, true) }

// cachedGlobal serves a global minimizing search from its cache word,
// rescanning only when the update generation moved since it was stored.
func (t *Table) cachedGlobal(slot *atomic.Uint64, cost, widthOne bool) int {
	gen := t.gen.Load()
	if w := slot.Load(); w != 0 && w>>bestIDBits == gen {
		return int(w&(1<<bestIDBits-1)) - 1
	}
	places := t.topo.Places()
	best, bestScore := -1, -1.0
	for id := range t.entries {
		w := places[id].Width
		if widthOne && w != 1 {
			continue
		}
		v := math.Float64frombits(t.entries[id].Load())
		if cost {
			v *= float64(w)
		}
		if best < 0 || v < bestScore {
			best, bestScore = id, v
		}
	}
	t.storeBest(slot, gen, best)
	return best
}

// BestLocalCost returns the dense id of the place minimizing estimate ×
// width among the aligned places containing core (the paper's local width
// search), cached per core against the update generation. Entry order and
// tie-breaking match the uncached search: the width-1 place wins ties.
func (t *Table) BestLocalCost(core int) int {
	slot := &t.bestLocalCost[core]
	gen := t.gen.Load()
	if w := slot.Load(); w != 0 && w>>bestIDBits == gen {
		return int(w&(1<<bestIDBits-1)) - 1
	}
	cands := t.topo.LocalPlaceIDs(core)
	places := t.topo.Places()
	best := int(cands[0]) // widths ascend, so entry 0 is (core, 1)
	bestScore := math.Float64frombits(t.entries[best].Load())
	for _, cid := range cands[1:] {
		id := int(cid)
		v := math.Float64frombits(t.entries[id].Load()) * float64(places[id].Width)
		if v < bestScore {
			best, bestScore = id, v
		}
	}
	t.storeBest(slot, gen, best)
	return best
}

// storeBest packs and publishes one best-place cache word, skipping ids or
// generations too large for their fields (neither occurs in practice).
func (t *Table) storeBest(slot *atomic.Uint64, gen uint64, id int) {
	if id >= 0 && id < 1<<bestIDBits-1 && gen < 1<<(64-bestIDBits) {
		slot.Store(gen<<bestIDBits | uint64(id+1))
	}
}

// Snapshot returns a copy of the table's current estimates keyed by place.
func (t *Table) Snapshot() map[topology.Place]float64 {
	out := make(map[topology.Place]float64, len(t.entries))
	for id, pl := range t.topo.Places() {
		v := t.ValueByID(id)
		if v != 0 {
			out[pl] = v
		}
	}
	return out
}

// String renders the measured entries, ordered by place, for debugging.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("ptt{")
	first := true
	for id, pl := range t.topo.Places() {
		v := t.ValueByID(id)
		if v == 0 {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		first = false
		fmt.Fprintf(&b, "%s=%.3gs", pl, v)
	}
	b.WriteString("}")
	return b.String()
}

// Registry holds one Table per task type, created lazily. It is safe for
// concurrent use.
type Registry struct {
	topo   *topology.Platform
	alpha  float64
	mu     atomic.Pointer[[]*Table] // copy-on-write slice indexed by TypeID
	growMu chanMutex
}

// chanMutex is a tiny mutex built on a buffered channel so the zero Registry
// literal stays small; it guards the rare grow path only.
type chanMutex struct{ ch atomic.Pointer[chan struct{}] }

func (m *chanMutex) lock() {
	ch := m.ch.Load()
	if ch == nil {
		newCh := make(chan struct{}, 1)
		if m.ch.CompareAndSwap(nil, &newCh) {
			ch = &newCh
		} else {
			ch = m.ch.Load()
		}
	}
	*ch <- struct{}{}
}

func (m *chanMutex) unlock() { <-*m.ch.Load() }

// NewRegistry builds a registry producing tables with the given alpha
// (<= 0 selects DefaultAlpha).
func NewRegistry(topo *topology.Platform, alpha float64) *Registry {
	r := &Registry{topo: topo, alpha: alpha}
	empty := make([]*Table, 0)
	r.mu.Store(&empty)
	return r
}

// Get returns the table for the task type, creating it on first use.
func (r *Registry) Get(id TypeID) *Table {
	if id < 0 {
		panic(fmt.Sprintf("ptt: negative TypeID %d", id))
	}
	tables := *r.mu.Load()
	if int(id) < len(tables) && tables[id] != nil {
		return tables[id]
	}
	r.growMu.lock()
	defer r.growMu.unlock()
	tables = *r.mu.Load()
	if int(id) >= len(tables) {
		grown := make([]*Table, id+1)
		copy(grown, tables)
		tables = grown
	} else {
		tables = append([]*Table(nil), tables...)
	}
	if tables[id] == nil {
		tables[id] = NewTable(r.topo, r.alpha)
	}
	r.mu.Store(&tables)
	return tables[id]
}

// Tables returns the currently existing tables indexed by TypeID; entries
// may be nil for unused ids.
func (r *Registry) Tables() []*Table {
	return *r.mu.Load()
}

// ResetAll clears every table in the registry.
func (r *Registry) ResetAll() {
	for _, t := range r.Tables() {
		if t != nil {
			t.Reset()
		}
	}
}

// Reset returns the registry to the observable state NewRegistry(topo,
// alpha) produces — every table unmeasured, future tables built for the
// given platform and alpha — while reusing the existing tables' storage.
// Unlike ResetAll it may rebind the platform, so pooled runtimes can carry
// one registry across runs that rebuild their topology per run. It must
// not race concurrent Get/Update; callers reset between runs.
func (r *Registry) Reset(topo *topology.Platform, alpha float64) {
	r.growMu.lock()
	defer r.growMu.unlock()
	r.topo = topo
	r.alpha = alpha
	for _, t := range *r.mu.Load() {
		if t != nil {
			t.adopt(topo, alpha)
		}
	}
}
