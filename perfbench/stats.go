package main

import (
	"math"
	"slices"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for the figure to mean anything.
const tailBeyond = 10

// median returns the nearest-rank median, the ⌈n/2⌉-th smallest sample,
// so it is always one of the samples (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)+1)/2-1]
}

// medianIndex returns the index in xs of the sample median returns.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case xs[a] < xs[b]:
			return -1
		case xs[a] > xs[b]:
			return 1
		}
		return 0
	})
	return idx[(len(idx)+1)/2-1]
}

// tail returns the highest nearest-rank percentile of xs that has at
// least tailBeyond samples beyond it: the (tailBeyond+1)-th largest
// sample, the percentile it sits at, and how many samples lie beyond it.
// With tailBeyond or fewer samples no such percentile exists; tail then
// returns the maximum with nothing beyond it.
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n <= tailBeyond {
		return s[n-1], 100, 0
	}
	k := n - tailBeyond // 1-based rank of the tail sample
	return s[k-1], 100 * float64(k) / float64(n), n - k
}

// mean returns the arithmetic mean (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// samples collects per-op values of named per-layer metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
