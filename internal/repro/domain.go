// Package repro implements reproducible statistics in the sense of
// Impagliazzo–Lei–Pitassi–Sorrell (ILPS22): randomized estimators that,
// run twice on *fresh samples* from the same distribution but with the
// *same internal randomness*, return the exact same output with high
// probability.
//
// The paper's LCA (Algorithm 2) needs exactly one such estimator: a
// reproducible approximate quantile over the distribution of item
// efficiencies, so that independent, stateless runs of the LCA compute
// identical Equally Partitioning Sequences and therefore answer
// according to one common solution (Lemma 4.9).
//
// Three estimators are provided, all operating over a finite Domain
// (the paper reduces efficiencies to a finite domain of size 2^poly(n)
// via a bit-complexity argument; we do the same with an explicit
// geometric grid, cf. the paper's footnote 5):
//
//   - Naive: the plain empirical quantile. Accurate but NOT
//     reproducible — the ablation baseline demonstrating the paper's
//     "second obstacle".
//   - Snap: randomized-rank estimate snapped to a randomly shifted
//     grid (shared randomness). Reproducible on benign distributions;
//     a lightweight heuristic.
//   - Trie: binary search over the domain with per-level randomized
//     decision thresholds drawn from the shared randomness. This is a
//     provably rho-reproducible tau-approximate quantile with
//     O(log^2 |X| / (tau^2 rho^2)) sample complexity — our engineering
//     stand-in for ILPS22 rMedian (which achieves (3/tau^2)^{log*|X|};
//     see DESIGN.md for the substitution rationale).
//
// PaddedMedian implements the paper's Algorithm 1 (rQuantile) verbatim:
// it reduces the p-quantile to a median computation by mixing in
// +/-infinity mass, then runs the Trie median on the extended domain.
package repro

import (
	"errors"
	"fmt"
	"math"
)

// Sentinel errors for domain and estimator construction.
var (
	// ErrBadDomain indicates invalid domain construction parameters.
	ErrBadDomain = errors.New("repro: invalid domain parameters")
	// ErrNoSamples indicates an estimator invoked with an empty sample.
	ErrNoSamples = errors.New("repro: no samples")
	// ErrBadParam indicates an out-of-range estimator parameter.
	ErrBadParam = errors.New("repro: parameter out of range")
)

// Domain is a finite, ordered discretization of a positive real value
// range onto a geometric grid of 2^bits cells. Index 0 represents all
// values <= Min; index Size()-1 represents all values >= Max; interior
// cell i covers [Min*ratio^(i-1), Min*ratio^i).
//
// The geometric (log-uniform) spacing matches the multiplicative
// nature of efficiency ratios: a fixed number of bits gives a fixed
// relative resolution across many orders of magnitude, mirroring the
// paper's 2^poly(n)-sized efficiency domain at engineering scale.
type Domain struct {
	min    float64
	max    float64
	bits   int
	logMin float64
	logStp float64
	// invStp is 1/logStp, and margin bounds in cells how far Index's
	// log-free estimate can lie from the reference formula's value.
	invStp float64
	margin float64
}

// maxDomainBits caps domain size; 2^30 indices is far beyond any
// useful efficiency resolution.
const maxDomainBits = 30

// NewDomain constructs a geometric domain over [min, max] with 2^bits
// cells. min must be positive and strictly below max.
func NewDomain(min, max float64, bits int) (*Domain, error) {
	if !(min > 0) || !(max > min) || math.IsInf(max, 0) || math.IsNaN(min) || math.IsNaN(max) {
		return nil, fmt.Errorf("%w: range [%v, %v]", ErrBadDomain, min, max)
	}
	if bits < 1 || bits > maxDomainBits {
		return nil, fmt.Errorf("%w: bits %d not in [1, %d]", ErrBadDomain, bits, maxDomainBits)
	}
	size := 1 << bits
	logMin, logMax := ln(min), ln(max)
	logStp := (logMax - logMin) / float64(size-1)
	return &Domain{
		min: min, max: max, bits: bits, logMin: logMin, logStp: logStp,
		invStp: 1 / logStp,
		margin: indexMargin(logMin, logMax, logStp, size),
	}, nil
}

// Bits returns log2 of the domain size.
func (d *Domain) Bits() int { return d.bits }

// Size returns the number of cells, 2^bits.
func (d *Domain) Size() int { return 1 << d.bits }

// Min returns the lower edge of the value range.
func (d *Domain) Min() float64 { return d.min }

// Max returns the upper edge of the value range.
func (d *Domain) Max() float64 { return d.max }

// Index maps a value to its domain cell. Values at or below Min map to
// 0; values at or above Max (including +Inf) map to Size()-1; NaN maps
// to 0 (callers should have filtered invalid values already).
//
// The cell is the one the reference formula
// int((ln(v) - logMin) / logStp) gives, for every float64. Index
// computes it without a logarithm call: ln v is the float's exponent
// times ln 2, plus the log of the table center nearest its mantissa,
// plus a degree-5 series for the remaining ratio. When the estimate
// lies within the domain's margin of a cell edge, or v is subnormal,
// Index evaluates the reference formula instead.
func (d *Domain) Index(v float64) int {
	if i, ok := d.estimate(v); ok {
		return i
	}
	return d.indexLog(v)
}

// estimate is Index's log-free path: the cell and true, or false when
// v lies outside (Min, Max) or is subnormal, or when the estimate lies
// within the margin of a cell edge.
func (d *Domain) estimate(v float64) (int, bool) {
	if !(v > d.min && v < d.max) {
		return 0, false
	}
	b := math.Float64bits(v)
	exp := int(b>>52) - 1023 // v > 0: the sign bit is clear
	if exp == -1023 {
		return 0, false // subnormal: no implicit leading bit
	}
	mant := b & (1<<52 - 1)
	j := mant >> (52 - logTableBits)
	// m - c_j, exactly: the mantissa bits below the table index, less
	// half a table step, scaled by 2^-52.
	dm := float64(int64(mant&(1<<(52-logTableBits)-1))-1<<(51-logTableBits)) * 0x1p-52
	r := float64(dm * logTable[j].inv) // m/c_j - 1, |r| <= 2^-(logTableBits+1)
	// ln(1+r) = r + r²(-1/2 + r/3) + r⁴(-1/4 + r/5), evaluated in two
	// halves: a shorter dependency chain than Horner's five steps.
	r2 := float64(r * r)
	a := float64(r*(1.0/3)) - 0.5
	c := float64(r*0.2) - 0.25
	p := r + float64(r2*(a+float64(r2*c)))
	// ln c_j + exp·ln 2 - logMin does not wait for the series.
	base := float64(float64(exp)*math.Ln2) - d.logMin + logTable[j].log
	y := float64((base + p) * d.invStp)
	i := int(y)
	if f := y - float64(i); f > d.margin && f < 1-d.margin {
		return min(i, d.Size()-1), true
	}
	return 0, false
}

// indexLog is Index by the reference formula.
func (d *Domain) indexLog(v float64) int {
	if math.IsNaN(v) || v <= d.min {
		return 0
	}
	if v >= d.max {
		return d.Size() - 1
	}
	i := int((ln(v) - d.logMin) / d.logStp)
	if i < 0 {
		return 0
	}
	if i >= d.Size() {
		return d.Size() - 1
	}
	return i
}

// ln is the natural logarithm of a domain bound or a value inside a
// domain: math.Log, bit for bit, for normal v, and for subnormal v
// math.Log(v·2⁵²) − 52·ln 2, where the scaling is exact. Go's amd64
// math.Log misreads subnormal inputs (it returns −709.09 for 5e-324,
// whose log is −744.44), while pure-Go platforms read them right;
// keeping subnormals off it gives a domain the same cells on every
// platform, as replicas that must agree on efficiency indices need.
func ln(v float64) float64 {
	if v < 0x1p-1022 {
		return math.Log(v*0x1p52) - 52*math.Ln2
	}
	return math.Log(v)
}

// logTableBits is how many leading mantissa bits select Index's
// logTable entry.
const logTableBits = 7

// logTable[j] holds ln c_j and 1/c_j for c_j = 1 + (j + 1/2)/2^7, the
// center of the mantissas whose leading seven bits are j.
var logTable = func() (t [1 << logTableBits]struct{ log, inv float64 }) {
	for j := range t {
		c := 1 + (float64(j)+0.5)/(1<<logTableBits)
		t[j].log, t[j].inv = math.Log(c), 1/c
	}
	return t
}()

// indexMargin bounds, in cells, how far Index's estimate can lie from
// the reference formula's value, for a domain of size cells over
// [e^logMin, e^logMax] with step logStp. It is twice the sum of the
// error terms below, counted with every operation rounded separately;
// a fused multiply-add only removes roundings. With u = 2^-53 and A
// bounding every log-space magnitude involved (ln v, the exponent
// times ln 2, the partial sums and the difference to logMin):
//
//   - the estimate of ln v - logMin: the product exp·Ln2 and Ln2's
//     own rounding (A·u each), the subtraction and the two sums (3A·u
//     together), the table log (below 2 ulps, 3u), the series'
//     roundings (u) and its truncation (below 2^-48/5);
//   - the reference: math.Log (taken as below 2 ulps, 4A·u) and its
//     subtraction (A·u);
//   - in cell units: the reference's quotient, the product by invStp
//     and invStp's own rounding, below 5u·size together.
//
// When the margin reaches half a cell, Index always takes the
// reference formula.
func indexMargin(logMin, logMax, logStp float64, size int) float64 {
	const u = 0x1p-53
	a := math.Max(math.Abs(logMin), math.Abs(logMax)) + 2 + math.Abs(logMin)
	logErr := float64(10*u*a) + 4*u + 0x1p-48/5
	return 2 * (float64(logErr/logStp) + float64(5*u*float64(size)))
}

// Value returns the representative value of cell i (its lower
// boundary, so that "efficiency >= Value(i)" is the natural threshold
// semantics for the LCA decision rule). Out-of-range indices clamp.
func (d *Domain) Value(i int) float64 {
	if i <= 0 {
		return d.min
	}
	if i >= d.Size()-1 {
		return d.max
	}
	return math.Exp(d.logMin + float64(float64(i)*d.logStp))
}

// Resolution returns the relative width of one cell: Value(i+1) is
// about (1+Resolution()) times Value(i).
func (d *Domain) Resolution() float64 {
	return math.Expm1(d.logStp)
}
