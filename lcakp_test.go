package lcakp_test

import (
	"context"
	"testing"

	"lcakp"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does: build, normalize, wrap, query, solve.
func TestFacadeEndToEnd(t *testing.T) {
	items := make([]lcakp.Item, 100)
	for i := range items {
		items[i] = lcakp.Item{
			Profit: float64(1 + i%17),
			Weight: float64(1 + i%11),
		}
	}
	inst, err := lcakp.NewInstance(items, 150)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	norm, err := inst.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	access, err := lcakp.NewSliceOracle(norm)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	counting := lcakp.NewCounting(access)
	lca, err := lcakp.NewLCAKP(counting, lcakp.Params{Epsilon: 0.15, Seed: 11})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}

	if _, err := lca.Query(context.Background(), 7); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if counting.Samples() == 0 {
		t.Error("query consumed no weighted samples")
	}

	sol, rule, err := lca.Solve(context.Background(), norm)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !sol.Feasible(norm) {
		t.Errorf("infeasible solution (rule %+v)", rule)
	}

	// Baselines run on the same normalized instance.
	greedy := lcakp.Greedy(norm)
	if !greedy.Solution.Feasible(norm) {
		t.Error("greedy infeasible")
	}
	half := lcakp.Half(norm)
	if half.Profit+1e-12 < greedy.Profit/2 {
		t.Errorf("half %v < greedy/2 %v", half.Profit, greedy.Profit/2)
	}
}

// TestFacadeWorkloadsAndFleet drives the workload registry and the
// distributed fleet through the facade.
func TestFacadeWorkloadsAndFleet(t *testing.T) {
	names := lcakp.WorkloadNames()
	if len(names) == 0 {
		t.Fatal("no workloads registered")
	}
	gen, err := lcakp.GenerateWorkload(lcakp.WorkloadSpec{Name: names[0], N: 200, Seed: 1})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	access, err := lcakp.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	fleet, err := lcakp.NewFleet(access, 2, lcakp.Params{Epsilon: 0.2, Seed: 5})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer fleet.Close()
	rep, err := fleet.CheckConsistency(context.Background(), []int{0, 50, 150})
	if err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	if rep.Replicas != 2 || rep.Queries != 3 {
		t.Errorf("report = %+v", rep)
	}
}

// TestFacadeEstimatorSwap verifies the quantile-estimator ablation
// hook is reachable from the public API.
func TestFacadeEstimatorSwap(t *testing.T) {
	gen, err := lcakp.GenerateWorkload(lcakp.WorkloadSpec{Name: "zipf", N: 300, Seed: 2})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	access, err := lcakp.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	var est lcakp.QuantileEstimator = lcakp.NaiveQuantile{}
	lca, err := lcakp.NewLCAKP(access, lcakp.Params{Epsilon: 0.2, Seed: 3, Estimator: est})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	if _, err := lca.Query(context.Background(), 0); err != nil {
		t.Fatalf("Query with naive estimator: %v", err)
	}
}

// TestFacadeSolverWrappers touches every solver wrapper on a small
// instance so the facade stays wired to the implementations.
func TestFacadeSolverWrappers(t *testing.T) {
	items := []lcakp.Item{
		{Profit: 6, Weight: 2},
		{Profit: 8, Weight: 4},
		{Profit: 2, Weight: 2},
	}
	inst, err := lcakp.NewInstance(items, 6)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	opt, err := lcakp.Exhaustive(inst)
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	if opt.Profit != 14 {
		t.Errorf("Exhaustive profit = %v, want 14", opt.Profit)
	}
	for name, solve := range map[string]func() (lcakp.Result, error){
		"mitm": func() (lcakp.Result, error) { return lcakp.MeetInTheMiddle(inst) },
		"bnb":  func() (lcakp.Result, error) { return lcakp.BranchAndBound(inst, 0) },
		"fptas": func() (lcakp.Result, error) {
			return lcakp.FPTAS(inst, 0.01)
		},
	} {
		res, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Profit != 14 {
			t.Errorf("%s profit = %v, want 14", name, res.Profit)
		}
	}
	if frac := lcakp.Fractional(inst); frac.Value < 14 {
		t.Errorf("Fractional %v < integral OPT", frac.Value)
	}
	intInst := &lcakp.IntInstance{
		Items:    []lcakp.IntItem{{Profit: 6, Weight: 2}, {Profit: 8, Weight: 4}, {Profit: 2, Weight: 2}},
		Capacity: 6,
	}
	for name, solve := range map[string]func() (lcakp.Result, error){
		"dpw": func() (lcakp.Result, error) { return lcakp.DPByWeight(intInst) },
		"dpp": func() (lcakp.Result, error) { return lcakp.DPByProfit(intInst) },
	} {
		res, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Profit != 14 {
			t.Errorf("%s profit = %v, want 14", name, res.Profit)
		}
	}
}

// TestFacadeRemoteWrappers drives the distributed wrappers end to end.
func TestFacadeRemoteWrappers(t *testing.T) {
	gen, err := lcakp.GenerateWorkload(lcakp.WorkloadSpec{Name: "uniform", N: 100, Seed: 4})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	access, err := lcakp.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	srv, err := lcakp.NewInstanceServer("127.0.0.1:0", access)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()
	remote, err := lcakp.DialInstance(srv.Addr(), 0, 0)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()
	lca, err := lcakp.NewLCAKP(remote, lcakp.Params{Epsilon: 0.25, Seed: 3})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	replica, err := lcakp.NewLCAServer("127.0.0.1:0", lcakp.TenantID{Seed: 3}, lca)
	if err != nil {
		t.Fatalf("NewLCAServer: %v", err)
	}
	defer replica.Close()
	client, err := lcakp.DialLCA(replica.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()
	if _, err := client.InSolution(context.Background(), 5); err != nil {
		t.Fatalf("InSolution: %v", err)
	}
}

// frameCounting is an Access written with the facade's names alone, as
// a caller outside the module would write one: it serves the items of
// an in-memory oracle and counts the sample frames asked of it.
type frameCounting struct {
	inner  *lcakp.SliceOracle
	frames int
}

func (f *frameCounting) QueryItem(ctx context.Context, i int) (lcakp.Item, error) {
	return f.inner.QueryItem(ctx, i)
}

func (f *frameCounting) SampleFrame(ctx context.Context, src *lcakp.Source, dst []lcakp.Draw) (int, error) {
	f.frames++
	return f.inner.SampleFrame(ctx, src, dst)
}

func (f *frameCounting) Sample(ctx context.Context, src *lcakp.Source) (int, lcakp.Item, error) {
	var d [1]lcakp.Draw
	_, err := f.SampleFrame(ctx, src, d[:])
	return d[0].Index, d[0].Item, err
}

func (f *frameCounting) N() int            { return f.inner.N() }
func (f *frameCounting) Capacity() float64 { return f.inner.Capacity() }

// TestFacadeCustomAccess runs the LCA over an Access implemented
// outside the module: it must answer as over the oracle it wraps, and
// draw its samples in frames, not one call per draw.
func TestFacadeCustomAccess(t *testing.T) {
	gen, err := lcakp.GenerateWorkload(lcakp.WorkloadSpec{Name: "zipf", N: 2000, Seed: 4})
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	access, err := lcakp.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	custom := &frameCounting{inner: access}
	params := lcakp.Params{Epsilon: 0.2, Seed: 3}
	viaCustom, err := lcakp.NewLCAKP(custom, params)
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	direct, err := lcakp.NewLCAKP(access, params)
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	ctx := context.Background()
	for _, i := range []int{0, 1, 17, 1999} {
		got, err := viaCustom.Query(ctx, i)
		if err != nil {
			t.Fatalf("Query(%d) over the custom access: %v", i, err)
		}
		want, err := direct.Query(ctx, i)
		if err != nil {
			t.Fatalf("Query(%d): %v", i, err)
		}
		if got != want {
			t.Errorf("item %d: custom access answers %v, slice oracle %v", i, got, want)
		}
	}
	// A run asks for each stage's draws in frames of at most 4,096.
	p := viaCustom.Params()
	if perQuery := (p.LargeSamples+4095)/4096 + (p.QuantileSamples+4095)/4096; custom.frames > 4*perQuery {
		t.Errorf("%d sample frames for 4 queries, want at most %d per query", custom.frames, perQuery)
	}
}
