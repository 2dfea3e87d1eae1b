// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used for every source of randomness in the repository:
// stealing victim selection, measurement jitter, and synthetic data
// generation. Centralizing randomness here keeps experiment runs exactly
// reproducible from a single seed, which the discrete-event simulator
// depends on.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014), implemented directly so
// the repository does not depend on math/rand's global state or version
// -dependent stream changes.
package xrand

import "math"

// RNG is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; give each goroutine (or simulated core) its own RNG via
// Split.
type RNG struct {
	state uint64
	inc   uint64
}

const (
	pcgMultiplier = 6364136223846793005
	pcgInit       = 0x853c49e6748fea9b
	pcgIncInit    = 0xda3e39cb94b95bdb
)

// New returns an RNG seeded with seed: Reseed on a zero RNG. Two RNGs
// built from the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed restarts r's stream from seed, so pooled runtimes can reuse RNG
// allocations across runs with byte-identical streams.
func (r *RNG) Reseed(seed uint64) {
	r.state = pcgInit + seed
	r.inc = pcgIncInit | 1
	r.next()
}

// Split derives an independent RNG from r in a deterministic way. The child
// stream is decorrelated from the parent by mixing the parent's next output
// into both the state and the stream increment.
func (r *RNG) Split() *RNG {
	child := &RNG{}
	r.SplitInto(child)
	return child
}

// SplitInto is Split writing into an existing RNG, for allocation-free
// reuse. child ends in exactly the state Split's fresh RNG would have.
func (r *RNG) SplitInto(child *RNG) {
	a := uint64(r.next())<<32 | uint64(r.next())
	b := uint64(r.next())<<32 | uint64(r.next())
	child.state = a
	child.inc = (b << 1) | 1
	child.next()
}

// next advances the generator and returns 32 fresh bits.
func (r *RNG) next() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return uint64(r.next())<<32 | uint64(r.next())
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method over 32 bits is plenty for
	// the ranges used here (queue counts, core counts, data sizes).
	bound := uint32(n)
	threshold := -bound % bound
	for {
		x := r.next()
		m := uint64(x) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Jitter returns a multiplicative noise factor 1+eps where eps is normally
// distributed with the given relative standard deviation, clamped so the
// factor stays positive (>= 0.05).
func (r *RNG) Jitter(relStd float64) float64 {
	f := 1 + relStd*r.NormFloat64()
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly permutes the order of the first n elements using
// the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
