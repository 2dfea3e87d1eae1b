package main

// The traced run records a span around every call the benchmark makes
// into the program, plus the service's own stage spans read back from
// GET /v1/jobs/{id}/trace. Spans stay in memory and are written once, at
// exit, as a Chrome trace. A span's name is "<layer>.<call>"; the layer
// prefix is what self times are charged to.

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dynasym/internal/trace"
)

// span is one timed interval. parent 0 marks a root; ids start at 1.
type span struct {
	id, parent, op int
	name           string
	lane           string
	start, end     time.Duration // offsets from the recorder's origin
}

// layer returns the part of a span name before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// recorder keeps the spans of one run. A nil recorder records nothing,
// which is how the untraced measurement runs the same code.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// at returns the current offset from the origin.
func (r *recorder) at() time.Duration { return time.Since(r.origin) }

// begin opens a span on the benchmark's own lane and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	t := r.at()
	return r.add(span{parent: parent, op: op, name: name, lane: "client", start: t, end: t})
}

// end closes the span begun with id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].end = r.at()
}

// add appends a finished span, assigning its id.
func (r *recorder) add(s span) int {
	s.id = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.id
}

// get returns the span with the given id.
func (r *recorder) get(id int) span { return r.spans[id-1] }

// subtree returns the span with id root and all of its descendants, each
// with its depth below root.
func subtree(spans []span, root int) ([]span, map[int]int) {
	children := map[int][]int{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.id] = s
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	var out []span
	depth := map[int]int{}
	var walk func(id, d int)
	walk = func(id, d int) {
		out = append(out, byID[id])
		depth[id] = d
		for _, c := range children[id] {
			walk(c, d+1)
		}
	}
	walk(root, 0)
	return out, depth
}

// uncovered names the share of an op that no span below its root covers.
const uncovered = "uncovered"

// selfTimes splits the duration of span root among the layers of the
// spans below it. Each instant of the root's interval is charged to the
// deepest span active at that instant; between equally deep spans it goes
// to the one that ends last, the one the op is still waiting on. Instants
// where only the root is active are charged to "uncovered". For properly
// nested spans whose siblings do not overlap, a span's charge is exactly
// its duration minus the part its children cover; concurrent siblings
// (shards running on two nodes at once) are charged once, so the parts
// always add up to the root's duration.
func selfTimes(spans []span, root int) map[string]time.Duration {
	sub, depth := subtree(spans, root)
	r := sub[0]
	var cuts []time.Duration
	for _, s := range sub {
		cuts = append(cuts, clampDur(s.start, r.start, r.end), clampDur(s.end, r.start, r.end))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	out := map[string]time.Duration{}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		var best *span
		for j := 1; j < len(sub); j++ {
			s := &sub[j]
			if s.start > a || s.end < b {
				continue
			}
			if best == nil || depth[s.id] > depth[best.id] ||
				depth[s.id] == depth[best.id] && s.end > best.end {
				best = s
			}
		}
		if best == nil {
			out[uncovered] += b - a
		} else {
			out[best.layer()] += b - a
		}
	}
	return out
}

func clampDur(x, lo, hi time.Duration) time.Duration { return min(max(x, lo), hi) }

// union returns the total length covered by the intervals.
func union(iv [][2]time.Duration) time.Duration {
	iv = slices.Clone(iv)
	slices.SortFunc(iv, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] > curE:
			total += curE - curS
			curS, curE = x[0], x[1]
		default:
			curE = max(curE, x[1])
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// jobSpan is one span of the service's own job trace, in job-relative
// time (offset from the job's creation).
type jobSpan struct {
	name, cat, lane string
	start, end      time.Duration
}

// parseJobTrace decodes the Chrome trace GET /v1/jobs/{id}/trace returns.
func parseJobTrace(data []byte) ([]jobSpan, error) {
	var evs []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
		Args struct {
			Name string `json:"name"`
		} `json:"args"`
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		return nil, fmt.Errorf("decode job trace: %w", err)
	}
	lanes := map[int]string{}
	for _, e := range evs {
		if e.Ph == "M" && e.Name == "thread_name" {
			lanes[e.Tid] = e.Args.Name
		}
	}
	var out []jobSpan
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		start := time.Duration(e.Ts * float64(time.Microsecond))
		out = append(out, jobSpan{name: e.Name, cat: e.Cat, lane: lanes[e.Tid],
			start: start, end: start + time.Duration(e.Dur*float64(time.Microsecond))})
	}
	return out, nil
}

// spanName maps a service job-trace span to the benchmark's layer names.
func (js jobSpan) spanName() string {
	switch {
	case js.cat == "dispatch" && strings.HasPrefix(js.lane, "peer"):
		return "wire.shard"
	case js.cat == "dispatch":
		return "pool.shard"
	case js.cat == "wire":
		return "wire.transit"
	case js.cat == "simulate" && strings.HasPrefix(js.name, "serve shard"):
		return "wire.serve"
	case js.cat == "simulate":
		return "pool.simulate"
	default:
		return "service." + js.name
	}
}

// graft adds a job's service spans under op root, shifted by created (the
// job's creation offset on the recorder's clock) and clamped to the op.
// Each span's parent is the shortest span of the op that contains it on
// a lane it can nest in: the job's own lane, the benchmark's calls, its
// own lane, or a lane its lane extends (a shard attempt's lane holds the
// wire and serve spans; "<attempt lane> w0" holds that pool slot's cells).
func (r *recorder) graft(root int, created time.Duration, jss []jobSpan) {
	op := r.get(root)
	slices.SortStableFunc(jss, func(a, b jobSpan) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(b.end, a.end)
	})
	for _, js := range jss {
		s := span{op: op.op, name: js.spanName(), lane: "service " + js.lane,
			start: clampDur(created+js.start, op.start, op.end),
			end:   clampDur(created+js.end, op.start, op.end)}
		s.parent = root
		best := op.end - op.start
		for _, c := range r.spans[root:] { // the op's spans follow its root; other roots are skipped
			nests := c.lane == s.lane || strings.HasPrefix(s.lane, c.lane+" ") ||
				c.lane == "client" || c.lane == "service job"
			if nests && c.op == op.op && c.parent != 0 && c.start <= s.start && c.end >= s.end && c.end-c.start <= best {
				s.parent, best = c.id, c.end-c.start
			}
		}
		r.add(s)
	}
}

// writeChrome writes every span as a Chrome trace (load it in
// ui.perfetto.dev), with each span's id, parent and op in its args.
func (r *recorder) writeChrome(path string) error {
	set := trace.NewSpanSet(0)
	for _, s := range r.spans {
		set.Add(trace.Span{Name: s.name, Cat: s.layer(), Lane: s.lane, Start: s.start, End: s.end,
			Args: map[string]string{
				"id":     strconv.Itoa(s.id),
				"parent": strconv.Itoa(s.parent),
				"op":     strconv.Itoa(s.op),
			}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := set.WriteChromeTrace(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
