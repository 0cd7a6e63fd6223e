package core

import (
	"context"
	"testing"

	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// benchLCA builds an LCA over a zipf workload for benchmarks.
func benchLCA(b *testing.B, n int, eps float64) (*LCAKP, *workload.Generated) {
	b.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: n, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		b.Fatal(err)
	}
	lca, err := NewLCAKP(acc, Params{Epsilon: eps, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return lca, gen
}

func BenchmarkComputeRule(b *testing.B) {
	for _, eps := range []float64{0.1, 0.2, 0.3} {
		lca, _ := benchLCA(b, 10_000, eps)
		b.Run("eps="+fmtEps(eps), func(b *testing.B) {
			root := rng.New(1)
			for i := 0; i < b.N; i++ {
				if _, err := lca.ComputeRule(context.Background(), root.DeriveIndex("r", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQuery(b *testing.B) {
	lca, gen := benchLCA(b, 10_000, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lca.Query(context.Background(), i%gen.Float.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	lca, gen := benchLCA(b, 10_000, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lca.Solve(context.Background(), gen.Float); err != nil {
			b.Fatal(err)
		}
	}
}

// fmtEps renders eps without strconv imports.
func fmtEps(eps float64) string {
	switch eps {
	case 0.1:
		return "0.1"
	case 0.2:
		return "0.2"
	case 0.3:
		return "0.3"
	default:
		return "x"
	}
}

// The per-stage benchmarks below split one ComputeRule at ε = 0.2 into
// the stages of Algorithm 2, each over fresh randomness per op and
// with the op's scratch taken from the package's pool and given back,
// as ComputeRule does.

func BenchmarkCollectLarge(b *testing.B) {
	lca, _ := benchLCA(b, 10_000, 0.2)
	root := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := lca.takeScratch()
		if _, _, err := lca.collectLarge(context.Background(), root.DeriveIndex("r", i), s.draws); err != nil {
			b.Fatal(err)
		}
		scratchPool.Put(s)
	}
}

func BenchmarkEstimateEPS(b *testing.B) {
	lca, _ := benchLCA(b, 10_000, 0.2)
	root := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := lca.takeScratch()
		if _, _, _, err := lca.estimateEPS(context.Background(), root.DeriveIndex("r", i), 0, s); err != nil {
			b.Fatal(err)
		}
		scratchPool.Put(s)
	}
}

// BenchmarkConvertGreedy times building Ĩ and CONVERT-GREEDY over it,
// from the large items and thresholds of one derivation.
func BenchmarkConvertGreedy(b *testing.B) {
	lca, _ := benchLCA(b, 10_000, 0.2)
	ctx := context.Background()
	fresh := rng.New(1)
	s := lca.takeScratch()
	large, _, err := lca.collectLarge(ctx, fresh.Derive("large"), s.draws)
	if err != nil {
		b.Fatal(err)
	}
	thresholds, _, _, err := lca.estimateEPS(ctx, fresh.Derive("eps"), 0, s)
	if err != nil {
		b.Fatal(err)
	}
	scratchPool.Put(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ruleSink = convertGreedy(lca.buildTilde(large, thresholds), thresholds, lca.params.Epsilon, nil)
	}
}

// ruleSink and decideSink keep benchmarked results alive.
var (
	ruleSink   Rule
	decideSink bool
)

func BenchmarkDecide(b *testing.B) {
	lca, gen := benchLCA(b, 10_000, 0.2)
	rule, err := lca.ComputeRule(context.Background(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	items := gen.Float.Items
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(items)
		decideSink = rule.Decide(k, items[k])
	}
}
