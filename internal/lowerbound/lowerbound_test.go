package lowerbound

import (
	"errors"
	"testing"

	"lcakp/internal/rng"
)

func TestORInstanceConstruction(t *testing.T) {
	inst, err := NewORInstance(10, 3, 0.5)
	if err != nil {
		t.Fatalf("NewORInstance: %v", err)
	}
	if !inst.OR() || inst.LastInSolution() {
		t.Error("planted instance: OR must be 1, last item not optimal")
	}
	empty, err := NewORInstance(10, -1, 0.5)
	if err != nil {
		t.Fatalf("NewORInstance: %v", err)
	}
	if empty.OR() || !empty.LastInSolution() {
		t.Error("all-zeros instance: OR must be 0, last item optimal")
	}
}

func TestORInstanceErrors(t *testing.T) {
	cases := []struct {
		n       int
		planted int
		beta    float64
	}{
		{1, -1, 0.5},   // too small
		{10, 9, 0.5},   // planted out of range (only n-1 bits)
		{10, -1, 0},    // bad beta
		{10, -1, 1},    // bad beta
		{10, -1, -0.2}, // bad beta
	}
	for _, tc := range cases {
		if _, err := NewORInstance(tc.n, tc.planted, tc.beta); !errors.Is(err, ErrBadGame) {
			t.Errorf("NewORInstance(%d,%d,%v) error = %v, want ErrBadGame",
				tc.n, tc.planted, tc.beta, err)
		}
	}
}

func TestORQueryCosts(t *testing.T) {
	inst, err := NewORInstance(10, 4, 0.5)
	if err != nil {
		t.Fatalf("NewORInstance: %v", err)
	}
	// The last item is free (the reduction answers it itself).
	p, err := inst.QueryProfit(9)
	if err != nil || p != 0.5 {
		t.Fatalf("QueryProfit(last) = %v, %v", p, err)
	}
	if q, _ := inst.Cost(); q != 0 {
		t.Errorf("last-item query counted: %d", q)
	}
	// Bit queries cost one each and reveal the plant.
	p, err = inst.QueryProfit(4)
	if err != nil || p != 1 {
		t.Fatalf("QueryProfit(plant) = %v, %v", p, err)
	}
	p, err = inst.QueryProfit(2)
	if err != nil || p != 0 {
		t.Fatalf("QueryProfit(zero) = %v, %v", p, err)
	}
	if q, _ := inst.Cost(); q != 2 {
		t.Errorf("queries = %d, want 2", q)
	}
	if _, err := inst.QueryProfit(100); !errors.Is(err, ErrBadGame) {
		t.Errorf("out of range query: %v", err)
	}
}

func TestORSampleConcentratesOnPlant(t *testing.T) {
	inst, err := NewORInstance(100, 7, 0.5)
	if err != nil {
		t.Fatalf("NewORInstance: %v", err)
	}
	src := rng.New(3)
	plantHits := 0
	const draws = 30000
	for d := 0; d < draws; d++ {
		switch idx := inst.Sample(src); idx {
		case 7:
			plantHits++
		case 99:
		default:
			t.Fatalf("sampled zero-profit index %d", idx)
		}
	}
	// Plant mass is 1/(1+0.5) = 2/3.
	got := float64(plantHits) / draws
	if got < 0.63 || got > 0.70 {
		t.Errorf("plant frequency %v, want ~2/3", got)
	}
}

func TestRandomProbeFullBudgetAlwaysCorrect(t *testing.T) {
	res, err := PlayORGame(RandomProbe{}, 256, 256, 400, 0.5, 1)
	if err != nil {
		t.Fatalf("PlayORGame: %v", err)
	}
	if res.Success.Estimate != 1 {
		t.Errorf("full-budget success = %v, want 1", res.Success.Estimate)
	}
}

func TestRandomProbeSmallBudgetNearChance(t *testing.T) {
	res, err := PlayORGame(RandomProbe{}, 4096, 16, 2000, 0.5, 2)
	if err != nil {
		t.Fatalf("PlayORGame: %v", err)
	}
	// Expected success: 1/2 + budget/(2(n-1)) ≈ 0.502.
	if res.Success.Estimate > 0.58 {
		t.Errorf("tiny-budget success = %v, want near 1/2", res.Success.Estimate)
	}
	if res.Success.Estimate < 0.42 {
		t.Errorf("success = %v suspiciously below chance", res.Success.Estimate)
	}
}

func TestWeightedSamplingConstantBudget(t *testing.T) {
	for _, n := range []int{256, 4096} {
		res, err := PlayORGame(WeightedSampling{}, n, 5, 2000, 0.5, 3)
		if err != nil {
			t.Fatalf("PlayORGame: %v", err)
		}
		if res.Success.Estimate < 0.95 {
			t.Errorf("n=%d: sampling success = %v, want > 0.95", n, res.Success.Estimate)
		}
		if res.MeanSamples > 5 {
			t.Errorf("n=%d: mean samples %v > budget", n, res.MeanSamples)
		}
	}
}

func TestORSuccessMonotoneInBudget(t *testing.T) {
	// The success curve must increase with budget (within noise).
	prev := 0.0
	for _, budget := range []int{32, 256, 1024, 2048} {
		res, err := PlayORGame(RandomProbe{}, 2048, budget, 1500, 0.5, 4)
		if err != nil {
			t.Fatalf("PlayORGame: %v", err)
		}
		if res.Success.Estimate < prev-0.05 {
			t.Errorf("success dropped at budget %d: %v < %v", budget, res.Success.Estimate, prev)
		}
		prev = res.Success.Estimate
	}
}

func TestBudgetForSuccessLinearInN(t *testing.T) {
	small, err := BudgetForSuccess(RandomProbe{}, 256, 800, 0.5, 2.0/3, 5)
	if err != nil {
		t.Fatalf("BudgetForSuccess: %v", err)
	}
	large, err := BudgetForSuccess(RandomProbe{}, 2048, 800, 0.5, 2.0/3, 5)
	if err != nil {
		t.Fatalf("BudgetForSuccess: %v", err)
	}
	ratio := float64(large.Budget) / float64(small.Budget)
	// n grew 8x; the crossover budget must grow by a comparable factor
	// (doubling search quantizes to powers of two).
	if ratio < 4 || ratio > 16 {
		t.Errorf("crossover budgets %d -> %d (ratio %v), want ~8x", small.Budget, large.Budget, ratio)
	}
}

func TestPlayORGameValidation(t *testing.T) {
	if _, err := PlayORGame(RandomProbe{}, 100, 10, 0, 0.5, 1); !errors.Is(err, ErrBadGame) {
		t.Errorf("trials=0: %v", err)
	}
	if _, err := PlayORGame(RandomProbe{}, 100, -1, 10, 0.5, 1); !errors.Is(err, ErrBadGame) {
		t.Errorf("budget=-1: %v", err)
	}
}

func TestMaximalInstanceDistribution(t *testing.T) {
	root := rng.New(6)
	light := 0
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		inst, err := NewMaximalInstance(50, root.DeriveIndex("t", trial))
		if err != nil {
			t.Fatalf("NewMaximalInstance: %v", err)
		}
		if inst.HiddenI() == inst.HiddenJ() {
			t.Fatal("hidden indices collide")
		}
		wj, err := inst.QueryWeight(inst.HiddenJ())
		if err != nil {
			t.Fatalf("QueryWeight(j): %v", err)
		}
		if wj == 0.25 {
			light++
		} else if wj != 0.75 {
			t.Fatalf("w_j = %v", wj)
		}
		// Weight queries are consistent with the construction.
		wi, err := inst.QueryWeight(inst.HiddenI())
		if err != nil || wi != 0.75 {
			t.Fatalf("QueryWeight(i) = %v, %v", wi, err)
		}
		other := 0
		if inst.HiddenI() == 0 || inst.HiddenJ() == 0 {
			other = 1
			if inst.HiddenI() == 1 || inst.HiddenJ() == 1 {
				other = 2
			}
		}
		w0, err := inst.QueryWeight(other)
		if err != nil || w0 != 0 {
			t.Fatalf("QueryWeight(other) = %v, %v", w0, err)
		}
	}
	frac := float64(light) / trials
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("P[w_j=1/4] = %v, want ~1/2", frac)
	}
}

func TestConsistentMaximal(t *testing.T) {
	lightInst := &MaximalInstance{n: 5, i: 0, j: 1, wj: 0.25}
	if !lightInst.ConsistentMaximal(true, true) {
		t.Error("light: (yes,yes) must be consistent")
	}
	if lightInst.ConsistentMaximal(true, false) || lightInst.ConsistentMaximal(false, false) {
		t.Error("light: any 'no' is inconsistent")
	}
	heavyInst := &MaximalInstance{n: 5, i: 0, j: 1, wj: 0.75}
	if !heavyInst.ConsistentMaximal(true, false) || !heavyInst.ConsistentMaximal(false, true) {
		t.Error("heavy: exactly-one-yes must be consistent")
	}
	if heavyInst.ConsistentMaximal(true, true) || heavyInst.ConsistentMaximal(false, false) {
		t.Error("heavy: matching answers are inconsistent")
	}
}

func TestProbeAndRankFullBudgetSucceeds(t *testing.T) {
	res, err := PlayMaximalGame(ProbeAndRank{}, 128, 128, 600, 7)
	if err != nil {
		t.Fatalf("PlayMaximalGame: %v", err)
	}
	if res.Success.Estimate < 0.99 {
		t.Errorf("full-budget success = %v, want ~1", res.Success.Estimate)
	}
}

func TestProbeAndRankSmallBudgetBelowFourFifths(t *testing.T) {
	for _, n := range []int{256, 2048} {
		res, err := PlayMaximalGame(ProbeAndRank{}, n, n/16, 1200, 8)
		if err != nil {
			t.Fatalf("PlayMaximalGame: %v", err)
		}
		if res.Success.Estimate >= 0.8 {
			t.Errorf("n=%d budget=n/16: success %v >= 4/5 — contradicts Theorem 3.4's shape",
				n, res.Success.Estimate)
		}
		if res.Success.Estimate < 0.45 {
			t.Errorf("n=%d: success %v below the always-achievable 1/2", n, res.Success.Estimate)
		}
	}
}

func TestMaximalGameValidation(t *testing.T) {
	if _, err := PlayMaximalGame(ProbeAndRank{}, 100, 10, 0, 1); !errors.Is(err, ErrBadGame) {
		t.Errorf("trials=0: %v", err)
	}
	if _, err := NewMaximalInstance(1, rng.New(1)); !errors.Is(err, ErrBadGame) {
		t.Errorf("n=1: %v", err)
	}
}
