package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws across distinct seeds", same)
	}
}

func TestDeriveReproducible(t *testing.T) {
	root1 := New(7)
	root2 := New(7)
	a := root1.Derive("quantile", "3")
	b := root2.Derive("quantile", "3")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derived streams with equal labels diverged at %d", i)
		}
	}
}

func TestDeriveLabelSeparation(t *testing.T) {
	root := New(7)
	// "ab","c" must differ from "a","bc" (separator byte).
	a := root.Derive("ab", "c")
	b := root.Derive("a", "bc")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Error("label concatenation collision")
	}
}

func TestDeriveDoesNotPerturbParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Derive("child")
	if a.Uint64() != b.Uint64() {
		t.Error("Derive consumed parent randomness")
	}
}

func TestDeriveIndexMatchesDistinctStreams(t *testing.T) {
	root := New(3)
	x := root.DeriveIndex("run", 1)
	y := root.DeriveIndex("run", 2)
	if x.Uint64() == y.Uint64() {
		t.Error("distinct indices produced identical first draws")
	}
	x2 := root.DeriveIndex("run", 1)
	// Note x has advanced; recreate to compare streams from start.
	x3 := New(3).DeriveIndex("run", 1)
	if x2.Uint64() != x3.Uint64() {
		t.Error("DeriveIndex not reproducible")
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(11)
	for i := 0; i < 10000; i++ {
		v := src.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	src := New(12)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += src.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestIntnUniform(t *testing.T) {
	src := New(13)
	const buckets = 10
	counts := make([]int, buckets)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[src.Intn(buckets)]++
	}
	for b, c := range counts {
		got := float64(c) / n
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %v, want ~0.1", b, got)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformRange(t *testing.T) {
	src := New(14)
	for i := 0; i < 1000; i++ {
		v := src.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) = %v", v)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	src := New(16)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := src.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v < 0", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := src.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleUniformity(t *testing.T) {
	// Position of element 0 after shuffling [0,1,2] must be uniform.
	src := New(18)
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		arr := []int{0, 1, 2}
		src.Shuffle(3, func(a, b int) { arr[a], arr[b] = arr[b], arr[a] })
		for pos, v := range arr {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		got := float64(c) / n
		if math.Abs(got-1.0/3) > 0.02 {
			t.Errorf("element 0 at position %d with frequency %v", pos, got)
		}
	}
}

func TestZipfHeadHeavier(t *testing.T) {
	src := New(19)
	z := NewZipf(100, 1.2)
	counts := make([]int, 101)
	const n = 50000
	for i := 0; i < n; i++ {
		r := z.Draw(src)
		if r < 1 || r > 100 {
			t.Fatalf("Zipf draw %d out of [1,100]", r)
		}
		counts[r]++
	}
	if counts[1] <= counts[10] || counts[10] <= counts[100] {
		t.Errorf("Zipf head not heavier: c1=%d c10=%d c100=%d",
			counts[1], counts[10], counts[100])
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		n     int
		alpha float64
	}{{0, 1}, {10, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.alpha)
				}
			}()
			NewZipf(tc.n, tc.alpha)
		}()
	}
}

func TestBoundedUint64Quick(t *testing.T) {
	// Property: Intn always lands in range for arbitrary seeds/bounds.
	f := func(seed uint64, boundRaw uint16) bool {
		bound := int(boundRaw%1000) + 1
		src := New(seed)
		for i := 0; i < 10; i++ {
			v := src.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestIntnCoinsMatchesIntnUint64 holds IntnCoins to the interleaved
// Intn(n), Uint64()>>11 sequence it replaces, on bounds from the
// trivial to a rejection-heavy 2^62+1 (Lemire's test rejects about a
// quarter of its draws there), and checks the source is left where
// the calls would leave it.
func TestIntnCoinsMatchesIntnUint64(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 1 << 20, 1_000_000, 1<<62 + 1} {
		for _, k := range []int{0, 1, 7, 256, 1000} {
			bulk, one := New(uint64(n)^uint64(k)), New(uint64(n)^uint64(k))
			cols, coins := make([]int, k), make([]uint64, k)
			bulk.IntnCoins(n, cols, coins)
			for j := range k {
				col, coin := one.Intn(n), one.Uint64()>>11
				if cols[j] != col || coins[j] != coin {
					t.Fatalf("n=%d k=%d: pair %d = (%d, %d), want (%d, %d)", n, k, j, cols[j], coins[j], col, coin)
				}
			}
			for j := range 4 {
				if a, b := bulk.Uint64(), one.Uint64(); a != b {
					t.Fatalf("n=%d k=%d: source left at a different position (draw %d after: %x vs %x)", n, k, j, a, b)
				}
			}
		}
	}
}

func TestIntnCoinsPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntnCoins(0) did not panic")
		}
	}()
	New(1).IntnCoins(0, make([]int, 1), make([]uint64, 1))
}
