package knapsack

import "testing"

func TestNewSolutionDedupeSort(t *testing.T) {
	s := NewSolution(5, 1, 3, 1, 5, 5)
	want := []int{1, 3, 5}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices() = %v, want %v", got, want)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len() = %d, want 3", s.Len())
	}
}

func TestSolutionContains(t *testing.T) {
	s := NewSolution(2, 4, 8)
	for _, i := range []int{2, 4, 8} {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false", i)
		}
	}
	for _, i := range []int{0, 3, 9, -1} {
		if s.Contains(i) {
			t.Errorf("Contains(%d) = true", i)
		}
	}
}

func TestSolutionProfitWeightFeasible(t *testing.T) {
	in := &Instance{
		Items:    []Item{{3, 2}, {4, 5}, {1, 1}},
		Capacity: 7,
	}
	s := NewSolution(0, 1)
	if got := s.Profit(in); got != 7 {
		t.Errorf("Profit = %v, want 7", got)
	}
	if got := s.Weight(in); got != 7 {
		t.Errorf("Weight = %v, want 7", got)
	}
	if !s.Feasible(in) {
		t.Error("exactly-tight solution reported infeasible")
	}
	if NewSolution(0, 1, 2).Feasible(in) {
		t.Error("overweight solution reported feasible")
	}
}
