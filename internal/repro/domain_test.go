package repro

import (
	"math"
	"testing"

	"lcakp/internal/rng"
)

// logIndex is Index by the math.Log formula alone: the clamps, then
// the fallback Index defers to.
func logIndex(d *Domain, v float64) int {
	if math.IsNaN(v) || v <= d.min {
		return 0
	}
	if v >= d.max {
		return d.Size() - 1
	}
	return d.indexLog(v)
}

// ulps steps a positive finite v by k units in the last place.
func ulps(v float64, k int) float64 {
	return math.Float64frombits(uint64(int64(math.Float64bits(v)) + int64(k)))
}

// indexChecker compares Index and its log-free estimate with the
// math.Log formula and counts how often the estimate decided.
type indexChecker struct {
	t         *testing.T
	d         *Domain
	decided   int
	estimated int
}

func (c *indexChecker) check(v float64) {
	c.t.Helper()
	want := logIndex(c.d, v)
	if got := c.d.Index(v); got != want {
		c.t.Fatalf("bits=%d [%g, %g]: Index(%v = %#016x) = %d, math.Log formula %d",
			c.d.bits, c.d.min, c.d.max, v, math.Float64bits(v), got, want)
	}
	if !(v > c.d.min && v < c.d.max) || v < 0x1p-1022 {
		return // the estimate takes normal values inside the range
	}
	c.estimated++
	if i, ok := c.d.estimate(v); ok {
		c.decided++
		if i != want {
			c.t.Fatalf("bits=%d [%g, %g]: estimate(%v = %#016x) = %d, math.Log formula %d",
				c.d.bits, c.d.min, c.d.max, v, math.Float64bits(v), i, want)
		}
	}
}

// checkEdge checks the values within 4 ulps of cell edge i and, on
// both sides, 2^3 to 2^14 ulps from it: the estimate defers near the
// edge and must agree once it decides.
func (c *indexChecker) checkEdge(i int) {
	c.t.Helper()
	e := c.d.Value(i)
	for k := -4; k <= 4; k++ {
		c.check(ulps(e, k))
	}
	for s := 3; s <= 14; s++ {
		c.check(ulps(e, 1<<s))
		c.check(ulps(e, -1<<s))
	}
}

// TestDomainIndexMatchesLog holds Index to the math.Log formula for
// every width from 1 to 30 bits over the default ε = 0.2 range
// [ε²/8, 1e9], over [1e-300, 1e300], and over a range from the
// smallest subnormal: special values, every cell edge at 12 bits and
// sampled edges at 20 and 30, log-uniform and raw-bit random values
// (10⁶ log-uniform ones at 12, 20 and 30 bits over the first two
// ranges). On the random values the log-free estimate must decide, not
// defer, for at least 99.9% of the normal ones inside the range.
func TestDomainIndexMatchesLog(t *testing.T) {
	ranges := []struct {
		min, max float64
		dense    bool
	}{
		{0.2 * 0.2 / 8, 1e9, true},
		{1e-300, 1e300, true},
		{math.SmallestNonzeroFloat64, 1, false},
	}
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1,
		math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), 0x1p-1022,
		1, math.MaxFloat64,
	}
	src := rng.New(21)
	for _, rg := range ranges {
		for bits := 1; bits <= 30; bits++ {
			d, err := NewDomain(rg.min, rg.max, bits)
			if err != nil {
				t.Fatalf("NewDomain: %v", err)
			}
			c := &indexChecker{t: t, d: d}
			for _, v := range specials {
				c.check(v)
			}
			for _, v := range []float64{d.min, d.max, math.Nextafter(d.min, 1), math.Nextafter(d.max, 0)} {
				c.check(v)
			}
			switch bits {
			case 12:
				for i := 1; i < d.Size(); i++ {
					c.checkEdge(i)
				}
			case 20, 30:
				for range 4096 {
					c.checkEdge(1 + src.Intn(d.Size()-1))
				}
			}

			c.decided, c.estimated = 0, 0
			n := 20_000
			if rg.dense && (bits == 12 || bits == 20 || bits == 30) {
				n = 1_000_000
			}
			lo, hi := math.Log(rg.min)-2, math.Log(rg.max)+2
			for range n {
				c.check(math.Exp(src.Uniform(lo, hi)))
			}
			for range 20_000 {
				c.check(math.Float64frombits(src.Uint64() >> 1))
				c.check(math.Float64frombits(src.Uint64() >> 12)) // subnormal
			}
			if c.decided < c.estimated-c.estimated/1000 {
				t.Errorf("bits=%d [%g, %g]: estimate decided %d of %d in-range random values, want 99.9%%",
					bits, rg.min, rg.max, c.decided, c.estimated)
			}
		}
	}
}

// TestDomainIndexDefersOnNarrowDomain checks a domain whose cells are
// narrower than the estimate's error: the margin reaches half a cell,
// so every value takes the math.Log formula.
func TestDomainIndexDefersOnNarrowDomain(t *testing.T) {
	d, err := NewDomain(1, 1+0x1p-30, 30)
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	if d.margin < 0.5 {
		t.Fatalf("margin %g, want at least half a cell", d.margin)
	}
	c := &indexChecker{t: t, d: d}
	for k := 0; k <= 1<<13; k++ {
		c.check(ulps(1, k))
	}
	if c.decided != 0 {
		t.Errorf("estimate decided %d values, want 0", c.decided)
	}
}

// frexpLog is ln v by math.Frexp, which normalizes a subnormal v
// exactly: v = frac·2^exp with frac in [1/2, 1), a normal input for
// math.Log on every platform.
func frexpLog(v float64) float64 {
	frac, exp := math.Frexp(v)
	return math.Log(frac) + float64(exp)*math.Ln2
}

// TestDomainLogSubnormal holds a domain to the math.Frexp reference
// where the bounds or the values are subnormal: its log bounds, and
// the cell indexLog gives every subnormal value inside it, the ones
// within 10⁻⁹ of a cell edge excepted. Go's amd64 math.Log returns
// −709.09 for 5e-324 (true −744.44), so there a domain that took
// math.Log of a subnormal bound indexed differently than on pure-Go
// platforms.
func TestDomainLogSubnormal(t *testing.T) {
	src := rng.New(23)
	for _, rg := range []struct{ min, max float64 }{
		{math.SmallestNonzeroFloat64, 1},
		{1e-320, 1e-300},
		{1e-310, 1},
		{math.SmallestNonzeroFloat64, 1e-310},
		{math.Float64frombits(1<<52 - 1), 1},
	} {
		for _, bits := range []int{1, 12, 20} {
			d, err := NewDomain(rg.min, rg.max, bits)
			if err != nil {
				t.Fatalf("NewDomain: %v", err)
			}
			for _, b := range []struct {
				name      string
				got, want float64
			}{
				{"logMin", d.logMin, frexpLog(rg.min)},
				{"logMax", d.logMin + float64(d.Size()-1)*d.logStp, frexpLog(rg.max)},
			} {
				if math.Abs(b.got-b.want) > 1e-12*math.Abs(d.logMin) {
					t.Fatalf("bits=%d [%g, %g]: %s = %v, math.Frexp reference %v", bits, rg.min, rg.max, b.name, b.got, b.want)
				}
			}
			checked := 0
			for k := 0; k < 20_000; k++ {
				v := math.Float64frombits(src.Uint64() >> 12) // subnormal
				if k%2 == 1 {
					v = math.Float64frombits(math.Float64bits(rg.min) + uint64(k)) // just above min
				}
				if !(v > rg.min && v < rg.max && v < 0x1p-1022) {
					continue
				}
				y := (frexpLog(v) - frexpLog(rg.min)) / d.logStp
				want := int(y)
				if f := y - float64(want); f < 1e-9 || f > 1-1e-9 {
					continue
				}
				want = min(want, d.Size()-1)
				if got := d.indexLog(v); got != want {
					t.Fatalf("bits=%d [%g, %g]: indexLog(%v = %#016x) = %d, math.Frexp reference %d",
						bits, rg.min, rg.max, v, math.Float64bits(v), got, want)
				}
				checked++
			}
			if checked == 0 && math.Nextafter(rg.min, 1) < 0x1p-1022 {
				t.Fatalf("bits=%d [%g, %g]: no subnormal value checked", bits, rg.min, rg.max)
			}
		}
	}
}

// tableCell is the bucket table's answer for v, and false where the
// table has none.
func tableCell(d *Domain, v float64) (int, bool) {
	k := math.Float64bits(v)>>d.shift - d.first
	if k >= uint64(len(d.cells)) || d.cells[k] == unknownCell {
		return 0, false
	}
	return int(d.cells[k]), true
}

// TestDomainTableMatchesLog holds every trusted bucket of the bucket
// table to the math.Log formula at its first, middle and last float,
// for every width from 1 to 16 bits over the default ε = 0.2 range and
// over [1e-300, 1e300], a range that takes fewer mantissa bits per
// bucket, and checks the buckets holding Min and Max are unknown.
func TestDomainTableMatchesLog(t *testing.T) {
	for _, rg := range []struct{ min, max float64 }{
		{0.2 * 0.2 / 8, 1e9},
		{1e-300, 1e300},
		{math.SmallestNonzeroFloat64, 1},
	} {
		for bits := 1; bits <= 16; bits++ {
			d, err := NewDomain(rg.min, rg.max, bits)
			if err != nil {
				t.Fatalf("NewDomain: %v", err)
			}
			for _, v := range []float64{d.min, d.max} {
				if _, ok := tableCell(d, v); ok {
					t.Fatalf("bits=%d [%g, %g]: the table answers the bound %v", bits, d.min, d.max, v)
				}
			}
			width := uint64(1) << d.shift
			for k, c := range d.cells {
				if c == unknownCell {
					continue
				}
				lo := (d.first + uint64(k)) << d.shift
				for _, b := range []uint64{lo, lo + width/2, lo + width - 1} {
					v := math.Float64frombits(b)
					if want := logIndex(d, v); int(c) != want {
						t.Fatalf("bits=%d [%g, %g]: table cell %d for %v = %#016x, math.Log formula %d",
							bits, d.min, d.max, c, v, b, want)
					}
				}
			}
		}
	}
}

// TestDomainTableAnswersMost keeps the table from silently vanishing:
// on the default 12-bit domain it must answer at least 85% of 10⁶
// log-uniform values itself (about 89% of log space lies in buckets
// inside one cell).
func TestDomainTableAnswersMost(t *testing.T) {
	d, err := NewDomain(0.2*0.2/8, 1e9, 12)
	if err != nil {
		t.Fatalf("NewDomain: %v", err)
	}
	src := rng.New(31)
	lo, hi := math.Log(d.min), math.Log(d.max)
	const n = 1_000_000
	answered := 0
	for range n {
		v := math.Exp(src.Uniform(lo, hi))
		if c, ok := tableCell(d, v); ok {
			answered++
			if want := logIndex(d, v); c != want {
				t.Fatalf("table cell %d for %v, math.Log formula %d", c, v, want)
			}
		}
	}
	if answered < n*85/100 {
		t.Errorf("table answered %d of %d log-uniform values, want at least 85%%", answered, n)
	}
}

// TestDomainTableGeometry checks the table is built from the domain's
// geometry: none where a bucket can be wider than a cell, as at 30
// bits, or where the cells outnumber a uint16, and Index still matches
// the math.Log formula there.
func TestDomainTableGeometry(t *testing.T) {
	src := rng.New(37)
	for _, tc := range []struct {
		min, max float64
		bits     int
		table    bool
	}{
		{0.2 * 0.2 / 8, 1e9, 12, true},
		{0.2 * 0.2 / 8, 1e9, 14, true},
		{0.2 * 0.2 / 8, 1e9, 15, false},
		{0.2 * 0.2 / 8, 1e9, 30, false},
		{1e-300, 1e300, 16, true},
		{1e-300, 1e300, 17, false},
	} {
		d, err := NewDomain(tc.min, tc.max, tc.bits)
		if err != nil {
			t.Fatalf("NewDomain: %v", err)
		}
		if got := len(d.cells) > 0; got != tc.table {
			t.Errorf("bits=%d [%g, %g]: table built %v, want %v", tc.bits, tc.min, tc.max, got, tc.table)
		}
		if len(d.cells) > 16*d.Size() {
			t.Errorf("bits=%d [%g, %g]: %d buckets for %d cells, want at most 16 per cell", tc.bits, tc.min, tc.max, len(d.cells), d.Size())
		}
		lo, hi := math.Log(tc.min)-1, math.Log(tc.max)+1
		for range 100_000 {
			v := math.Exp(src.Uniform(lo, hi))
			if got, want := d.Index(v), logIndex(d, v); got != want {
				t.Fatalf("bits=%d [%g, %g]: Index(%v) = %d, math.Log formula %d", tc.bits, tc.min, tc.max, v, got, want)
			}
		}
	}
}
