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
// range [min, max] onto a geometric grid of 2^bits cells. Index 0
// represents all values <= min; index Size()-1 represents all values
// >= max; interior cell i covers [min*ratio^(i-1), min*ratio^i).
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
	// cells is the bucket table (see buildCells): cells[k] is the cell
	// of every float whose bits shifted right by shift equal first+k,
	// or unknownCell. It is empty when the cells are narrower than the
	// buckets or there are more cells than a uint16 holds.
	cells []uint16
	shift uint
	first uint64
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
	d := &Domain{
		min: min, max: max, bits: bits, logMin: logMin, logStp: logStp,
		invStp: 1 / logStp,
		margin: indexMargin(logMin, logMax, logStp, size),
	}
	d.buildCells()
	return d, nil
}

// Size returns the number of cells, 2^bits.
func (d *Domain) Size() int { return 1 << d.bits }

// Index maps a value to its domain cell. Values at or below min map to
// 0; values at or above max (including +Inf) map to Size()-1; NaN maps
// to 0 (callers should have filtered invalid values already).
//
// The cell is the one the reference formula
// int((ln(v) - logMin) / logStp) gives, for every float64. Index reads
// it from the domain's bucket table when v's bucket (its exponent and
// leading mantissa bits) lies inside one cell, as about 89% of
// log-uniform values on the default 12-bit domain do. Otherwise it
// computes the cell without a logarithm call: ln v is the float's
// exponent times ln 2, plus the log of the table center nearest its
// mantissa, plus a degree-5 series for the remaining ratio. When that
// estimate lies within the domain's margin of a cell edge, or v is
// subnormal, Index evaluates the reference formula instead.
func (d *Domain) Index(v float64) int {
	if k := math.Float64bits(v)>>d.shift - d.first; k < uint64(len(d.cells)) {
		if c := d.cells[k]; c != unknownCell {
			return int(c)
		}
	}
	return d.indexComputed(v)
}

// indexComputed is Index past the bucket table.
func (d *Domain) indexComputed(v float64) int {
	if i, ok := d.estimate(v); ok {
		return i
	}
	return d.indexLog(v)
}

// unknownCell marks a bucket whose floats may fall in more than one
// cell.
const unknownCell = math.MaxUint16

// maxBucketBits caps the leading mantissa bits a bucket key takes.
const maxBucketBits = 10

// buildCells fills the bucket table. A bucket is the floats sharing
// their exponent and leading m mantissa bits, with m chosen from the
// domain's geometry: the fewest bits, at most maxBucketBits, that make
// a bucket at most an eighth of a cell wide in log space. The default
// domain takes all ten, ~39k buckets; a domain of wide cells takes
// fewer, so the table has at most ~16 entries per cell. No table is
// built when a bucket can be wider than a cell (a 30-bit domain, say)
// or when the cells outnumber what a uint16 holds.
//
// A bucket is trusted when its two ends, in cells, lie in one cell
// with the margin to spare: int(ya - margin) = int(yb + margin), for
// y = (ln a - logMin)·invStp at the bucket's lowest float a and at the
// next bucket's. ln a is computed as exponent·ln 2 + ln(1 + j/2^m),
// from bucketLog, whose roundings are a subset of those indexMargin
// counts for the estimate, so ya and yb lie within margin/2 of their
// exact values. Every float of a trusted bucket then lies, exactly,
// more than margin/2 inside the cell, and the reference formula, itself
// within margin/2 of the exact value, gives that cell. The buckets
// holding Min and Max, and subnormal buckets, stay unknown, so a value
// the table answers is normal and inside (Min, Max).
func (d *Domain) buildCells() {
	if d.Size() > 1<<16 {
		return
	}
	m := 0
	for m < maxBucketBits && math.Ln2/float64(uint64(1)<<m) > d.logStp/8 {
		m++
	}
	if math.Log1p(1/float64(uint64(1)<<m)) > d.logStp {
		return
	}
	d.shift = uint(52 - m)
	d.first = math.Float64bits(d.min)>>d.shift + 1
	last := math.Float64bits(d.max) >> d.shift
	if last <= d.first {
		return
	}
	cells := make([]uint16, last-d.first)
	step, mask := uint64(1)<<(maxBucketBits-m), uint64(1)<<m-1
	inv, margin := d.invStp, d.margin
	for k := 0; k < len(cells); {
		// One exponent's buckets, from the k-th on.
		key := d.first + uint64(k)
		base := float64(float64(int(key>>m)-1023)*math.Ln2) - d.logMin
		normal := key>>m != 0
		j := key & mask
		ya := float64((base + bucketLog[j*step]) * inv)
		for ; j <= mask && k < len(cells); j++ {
			yb := float64((base + bucketLog[(j+1)*step]) * inv)
			lo, hi := ya-margin, yb+margin
			cells[k] = unknownCell
			if c := int(lo); normal && lo >= 0 && c == int(hi) && c < unknownCell {
				cells[k] = uint16(c)
			}
			ya = yb
			k++
		}
	}
	d.cells = cells
}

// bucketLog[i] is ln(1 + i/2^maxBucketBits).
var bucketLog = func() (t [1<<maxBucketBits + 1]float64) {
	for i := range t {
		t[i] = math.Log1p(float64(i) / (1 << maxBucketBits))
	}
	return t
}()

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
