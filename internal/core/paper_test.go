package core

import (
	"math"
	"testing"

	"lcakp/internal/repro"
)

// paperRMedian is the rMedian sample complexity E4 prints for ε over
// an instance of n items: ILPS22 Theorem 2.7 at τ = ε²/5 and
// ρ = ε²/18, over a domain of 2^(4⌈log₂ n⌉) efficiencies.
func paperRMedian(eps float64, n int) float64 {
	bits := 4 * int(math.Ceil(math.Log2(float64(n))))
	return repro.PaperRMedianSampleComplexity(bits, eps*eps/5, eps*eps/18)
}

// TestPaperFormulas pins the literal paper formulas that E4 and E8b
// print next to the measured counts.
func TestPaperFormulas(t *testing.T) {
	// m at delta = 0.01: ceil(600*(ln 100 + 1)) = ceil(3363.4).
	m, err := PaperLargeSampleCount(0.01, 1)
	if err != nil {
		t.Fatalf("PaperLargeSampleCount: %v", err)
	}
	if m < 3360 || m > 3368 {
		t.Errorf("m = %d, want ~3364", m)
	}
	// The rMedian term must dwarf everything else — that is the point.
	if r := paperRMedian(0.1, 1000); r < 1e20 {
		t.Errorf("rMedian samples = %v, expected astronomical", r)
	}
}

func TestPaperFormulasGrowAsEpsilonShrinks(t *testing.T) {
	loose, err := PaperLargeSampleCount(0.3*0.3, 1)
	if err != nil {
		t.Fatalf("PaperLargeSampleCount: %v", err)
	}
	tight, err := PaperLargeSampleCount(0.05*0.05, 1)
	if err != nil {
		t.Fatalf("PaperLargeSampleCount: %v", err)
	}
	if tight <= loose {
		t.Errorf("m not increasing as eps shrinks: %d <= %d", tight, loose)
	}
	if r, l := paperRMedian(0.05, 10000), paperRMedian(0.3, 10000); r <= l {
		t.Errorf("rMedian samples not increasing as eps shrinks: %v <= %v", r, l)
	}
}

func TestPaperRMedianLogStarGrowth(t *testing.T) {
	// Growing n only enters through log*|X|: the count is flat over
	// huge ranges of n and jumps at log* boundaries.
	small, big := paperRMedian(0.1, 1<<10), paperRMedian(0.1, 1<<20)
	// Doubling the bit-length of n multiplies the rMedian term by at
	// most one extra (3/tau^2)^{Δlog*} factor; for these sizes log*
	// does not even change, so the ratio must be modest.
	if ratio := big / small; ratio > 1e10 {
		t.Errorf("rMedian ratio %v across n range, want mild log* growth", ratio)
	}
	if big < small {
		t.Errorf("rMedian samples decreased with n")
	}
}
