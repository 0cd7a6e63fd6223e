package repro

import (
	"fmt"

	"lcakp/internal/rng"
)

// Iterated is the coarse-to-fine quantile estimator, shaped after the
// iterated domain-compression recursion that gives ILPS22 rMedian its
// log*|X| dependence: instead of binary-searching the full domain in
// one pass (as Trie does), it runs the randomized-threshold search on
// a geometrically coarsened view of the domain, then recurses inside
// the returned coarse cell (padded by one cell on each side) at the
// next finer granularity, until single-cell resolution is reached.
//
// Each stage searches only StageBits levels, so the randomness budget
// per stage is small and independent of the total domain size; the
// number of stages is ceil(d / StageBits). Like Trie, two runs share
// every stage's randomized thresholds and therefore take the same path
// unless an empirical-CDF estimate straddles a threshold. The variant
// exists for the consistency-mechanism ablation (DESIGN.md §5): it
// trades Trie's single d-level search for several short searches over
// re-scaled views, mirroring the recursion structure (though not the
// sample-complexity bound) of the paper's rMedian.
type Iterated struct {
	// Tau is the target quantile accuracy.
	Tau float64
	// StageBits is the number of binary-search levels per stage
	// (0 selects 4, i.e. 16 coarse cells per stage).
	StageBits int
}

var _ Estimator = Iterated{}

// Name returns "iterated".
func (Iterated) Name() string { return "iterated" }

// Quantile runs the staged search.
func (it Iterated) Quantile(cdf *ECDF, domainSize int, p float64, shared, _ *rng.Source) (int, error) {
	if err := checkQuantileArgs(cdf, domainSize, p, it.Tau); err != nil {
		return 0, err
	}
	if shared == nil {
		return 0, fmt.Errorf("%w: Iterated requires shared randomness", ErrBadParam)
	}
	stageBits := it.StageBits
	if stageBits <= 0 {
		stageBits = 4
	}
	stageCells := 1 << stageBits

	lo, hi := 0, domainSize // current index window [lo, hi)
	stage := 0
	for hi-lo > 1 {
		// Partition the window into at most stageCells equal cells and
		// binary-search for the cell containing the p-quantile, with a
		// fresh randomized threshold per level drawn from the shared
		// stream (keyed by stage so paths stay aligned across runs).
		width := hi - lo
		cell := (width + stageCells - 1) / stageCells
		numCells := (width + cell - 1) / cell

		stageSrc := shared.DeriveIndex("stage", stage)
		cLo, cHi := 0, numCells-1
		for cLo < cHi {
			mid := cLo + (cHi-cLo)/2
			// Right edge (inclusive) of cell mid within the window.
			edge := lo + (mid+1)*cell - 1
			if edge >= hi {
				edge = hi - 1
			}
			threshold := p + float64((stageSrc.Float64()-0.5)*it.Tau)
			if cdf.FractionLE(edge) >= threshold {
				cHi = mid
			} else {
				cLo = mid + 1
			}
		}

		// Recurse inside the chosen cell padded by one cell on each
		// side: the padding absorbs the per-stage threshold slack so a
		// borderline quantile near a cell edge stays inside the window.
		newLo := lo + (cLo-1)*cell
		newHi := lo + (cLo+2)*cell
		if newLo < lo {
			newLo = lo
		}
		if newHi > hi {
			newHi = hi
		}
		if newHi-newLo >= hi-lo {
			// The window stopped shrinking (tiny windows); finish with
			// a direct scan.
			break
		}
		lo, hi = newLo, newHi
		stage++
	}

	// Final resolution inside the remaining window: smallest index
	// whose empirical CDF clears a randomized threshold (randomized,
	// as in every other level, so that two runs only disagree when
	// their CDF estimates straddle it). The window is at most 3 cells
	// of the last stage, so this is O(small).
	final := p + float64((shared.Derive("final").Float64()-0.5)*it.Tau)
	for x := lo; x < hi; x++ {
		if cdf.FractionLE(x) >= final {
			return x, nil
		}
	}
	return hi - 1, nil
}
