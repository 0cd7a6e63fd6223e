package epoch

import (
	"context"
	"runtime"
	"testing"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// benchSizes are churn-batch's instance size and 1M.
var benchSizes = []struct {
	name string
	n    int
}{{"n=200k", 200_000}, {"n=1M", 1_000_000}}

// benchParams are servebench's ε = 0.2 under a fixed seed.
var benchParams = core.Params{Epsilon: 0.2, Seed: 3}

// benchInstance generates a zipf instance of n items.
func benchInstance(tb testing.TB, n int) *knapsack.Instance {
	tb.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: n, Seed: 1})
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	return gen.Float
}

// swapLog is one churn-batch epoch's log over inst: 32 profit swaps
// between distinct small items, 64 reprices that keep the total.
func swapLog(inst *knapsack.Instance) []Mutation {
	src := rng.New(1)
	eps2 := benchParams.Epsilon * benchParams.Epsilon
	touched := make(map[int]bool)
	var log []Mutation
	for len(log) < 64 {
		a, b := src.Intn(inst.N()), src.Intn(inst.N())
		pa, pb := inst.Items[a], inst.Items[b]
		if a == b || touched[a] || touched[b] || pa.Profit > eps2 || pb.Profit > eps2 {
			continue
		}
		touched[a], touched[b] = true, true
		log = append(log,
			Mutation{Op: OpReprice, Index: uint32(a), Profit: pb.Profit, Weight: pa.Weight},
			Mutation{Op: OpReprice, Index: uint32(b), Profit: pa.Profit, Weight: pb.Weight})
	}
	return log
}

// BenchmarkApply replays one churn-batch epoch's log onto a zipf base.
func BenchmarkApply(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			base := benchInstance(b, size.n)
			log := swapLog(base)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Apply(base, log); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeal stages one churn-batch epoch's log and seals it: Apply,
// the alias table over the new instance and the rule's derivation.
func BenchmarkSeal(b *testing.B) {
	ctx := context.Background()
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			base := benchInstance(b, size.n)
			m, err := NewManager(ctx, engine.TenantID{Instance: 1, Seed: benchParams.Seed}, base, benchParams, 2)
			if err != nil {
				b.Fatalf("NewManager: %v", err)
			}
			log := swapLog(base)
			b.ReportAllocs()
			for b.Loop() {
				if err := m.StageAll(log); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Seal(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewManager boots one tenant over a catalog a live oracle
// has already indexed, as servebench's instance server has: epoch 0's
// derivation draws from the catalog's one alias table and builds none.
func BenchmarkNewManager(b *testing.B) {
	ctx := context.Background()
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			base := benchInstance(b, size.n)
			server, err := oracle.NewSliceOracle(base)
			if err != nil {
				b.Fatalf("NewSliceOracle: %v", err)
			}
			id := engine.TenantID{Instance: 1, Seed: benchParams.Seed}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewManager(ctx, id, base, benchParams, 2); err != nil {
					b.Fatal(err)
				}
			}
			runtime.KeepAlive(server)
		})
	}
}
