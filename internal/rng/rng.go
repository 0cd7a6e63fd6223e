// Package rng provides deterministic, splittable pseudo-random number
// generation for the LCA reproduction.
//
// The Local Computation Algorithm model (Definition 2.2 of the paper)
// gives every run of the algorithm a read-only shared random seed r.
// Consistency across runs hinges on a strict discipline: randomness that
// must be *identical* across runs (e.g. the internal randomness of the
// reproducible quantile algorithm) is derived deterministically from r,
// while randomness that is *fresh* per run (e.g. the weighted samples
// drawn from the instance) comes from an independent stream.
//
// This package implements that discipline with a hierarchical,
// label-addressed derivation scheme: a Source is created from a 64-bit
// seed, and Derive(labels...) produces a statistically independent child
// Source whose stream depends only on the parent seed and the labels.
// Two processes holding the same root seed therefore reconstruct the
// exact same randomness for any labelled purpose without coordination —
// which is exactly how parallel LCA replicas stay consistent.
//
// The generator is xoshiro256** seeded via SplitMix64, following the
// recommendation of Blackman & Vigna. It is not cryptographically
// secure and must not be used for security purposes.
package rng

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator.
//
// A Source is not safe for concurrent use; derive independent child
// sources (one per goroutine) instead of sharing one.
type Source struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand seeds into full xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	// xoshiro256** requires a state that is not all zero; SplitMix64
	// cannot produce four consecutive zero outputs, so src.s is valid.
	return &src
}

// rotl is a left bit rotation, the core xoshiro mixing primitive.
func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**).
func (s *Source) Uint64() uint64 {
	var v uint64
	v, s.s[0], s.s[1], s.s[2], s.s[3] = next(s.s[0], s.s[1], s.s[2], s.s[3])
	return v
}

// next is one xoshiro256** step over a state held in locals: the
// output and the state after it.
func next(s0, s1, s2, s3 uint64) (v, n0, n1, n2, n3 uint64) {
	v = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return v, s0, s1, s2, s3
}

// Derive returns a child Source that is a deterministic function of the
// receiver's *original seed material* and the given labels. Deriving
// does not consume randomness from, or otherwise perturb, the parent:
// it hashes the parent's current state snapshot together with the
// labels. Call Derive on a freshly created (or freshly derived) Source
// to obtain reproducible streams:
//
//	root := rng.New(seed)
//	quantiles := root.Derive("rquantile", "level", "3")
//
// Children derived with distinct label sequences are statistically
// independent for all practical purposes.
func (s *Source) Derive(labels ...string) *Source {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range s.s {
		binary.LittleEndian.PutUint64(buf[:], w)
		_, _ = h.Write(buf[:])
	}
	for _, label := range labels {
		// Separator byte prevents label-concatenation collisions
		// (e.g. Derive("ab","c") vs Derive("a","bc")).
		buf[0] = 0x1f
		_, _ = h.Write(buf[:1])
		_, _ = h.Write([]byte(label)) //lint:alloc one copy per label per derivation, outside the sample loops
	}
	return New(h.Sum64())
}

// DeriveIndex is a convenience wrapper equivalent to
// Derive(label, strconv.Itoa(i)) but avoids the string conversion.
func (s *Source) DeriveIndex(label string, i int) *Source {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range s.s {
		binary.LittleEndian.PutUint64(buf[:], w)
		_, _ = h.Write(buf[:])
	}
	_, _ = h.Write([]byte{0x1f})
	_, _ = h.Write([]byte(label))
	binary.LittleEndian.PutUint64(buf[:], uint64(i))
	_, _ = h.Write([]byte{0x1f})
	_, _ = h.Write(buf[:])
	return New(h.Sum64())
}

// Float64 returns a uniformly distributed value in [0, 1).
func (s *Source) Float64() float64 {
	// Use the top 53 bits for a uniform double in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if
// n <= 0, matching the contract of math/rand.Intn.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with non-positive n %d", n))
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// nearly-divisionless rejection method.
func (s *Source) boundedUint64(bound uint64) uint64 {
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return hi
		}
	}
}

// IntnCoins fills cols and coins with what successive Intn(n),
// Uint64()>>11 call pairs would return, pair j in cols[j] and
// coins[j], and leaves the source where those calls would. It is one
// call per chunk of alias draws (column, then coin) that keeps the
// generator state in locals between draws. coins must be at least as
// long as cols. It panics if n <= 0, as Intn does.
func (s *Source) IntnCoins(n int, cols []int, coins []uint64) {
	if n <= 0 {
		panic(fmt.Sprintf("rng: IntnCoins called with non-positive n %d", n))
	}
	coins = coins[:len(cols)]
	bound := uint64(n)
	// boundedUint64's test, lo >= bound || lo >= -bound%bound, with
	// the remainder taken once: it is below bound, so the test is
	// lo >= reject.
	reject := -bound % bound
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for j := range cols {
		for {
			var v uint64
			v, s0, s1, s2, s3 = next(s0, s1, s2, s3)
			hi, lo := bits.Mul64(v, bound)
			if lo >= reject {
				cols[j] = int(hi)
				break
			}
		}
		var v uint64
		v, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		coins[j] = v >> 11
	}
	s.s = [4]uint64{s0, s1, s2, s3}
}

// Uniform returns a uniformly distributed value in [lo, hi). It panics
// if hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: Uniform called with hi %v < lo %v", hi, lo))
	}
	return lo + (hi-lo)*s.Float64()
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates). It panics if n < 0.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle called with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Zipfian draws Zipf-distributed ranks using precomputed cumulative
// weights and binary search.
type Zipfian struct {
	cum []float64 // cum[i] = normalized CDF at rank i+1
}

// NewZipf precomputes a Zipf(n, alpha) sampler over ranks 1..n.
// It panics if n <= 0 or alpha <= 0.
func NewZipf(n int, alpha float64) *Zipfian {
	if n <= 0 {
		panic(fmt.Sprintf("rng: NewZipf called with non-positive n %d", n))
	}
	if alpha <= 0 {
		panic(fmt.Sprintf("rng: NewZipf called with non-positive alpha %v", alpha))
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 1; i <= n; i++ {
		total += math.Pow(float64(i), -alpha)
		cum[i-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipfian{cum: cum}
}

// Draw returns a rank in [1, n] distributed Zipf(n, alpha).
func (z *Zipfian) Draw(s *Source) int {
	u := s.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}
