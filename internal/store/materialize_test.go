package store

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"lcakp/internal/core"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/workload"
)

// TestMaterializeScanMatchesPerItemDecide holds the scan, which sets
// each answer bit into the artifact as it goes, to NewArtifactEpoch
// over the per-item Decide answers: the five goldenArtifacts cases and
// an n that leaves a partial last answer byte.
func TestMaterializeScanMatchesPerItemDecide(t *testing.T) {
	ctx := context.Background()
	type scanCase struct {
		workload string
		n        int
		eps      float64
		seed     uint64
	}
	cases := []scanCase{{"uniform", 1003, 0.1, 4}}
	for _, g := range goldenArtifacts {
		cases = append(cases, scanCase{g.workload, g.n, g.eps, g.seed})
	}
	for _, c := range cases {
		gen, err := workload.Generate(workload.Spec{Name: c.workload, N: c.n, Seed: 17})
		if err != nil {
			t.Fatalf("Generate(%s): %v", c.workload, err)
		}
		acc, err := oracle.NewSliceOracle(gen.Float)
		if err != nil {
			t.Fatalf("NewSliceOracle: %v", err)
		}
		lca, err := core.NewLCAKP(acc, core.Params{Epsilon: c.eps, Seed: c.seed})
		if err != nil {
			t.Fatalf("NewLCAKP: %v", err)
		}
		rule, err := MaterializeRule(ctx, lca)
		if err != nil {
			t.Fatalf("MaterializeRule: %v", err)
		}
		scanned, err := MaterializeEpoch(ctx, acc, rule, 1, c.seed, 3)
		if err != nil {
			t.Fatalf("MaterializeEpoch: %v", err)
		}
		answers := make([]bool, c.n)
		members := 0
		for i, it := range gen.Float.Items {
			answers[i] = rule.Decide(i, it)
			if answers[i] {
				members++
			}
		}
		packed, err := NewArtifactEpoch(1, c.seed, 3, c.eps, answers, FromRule(rule))
		if err != nil {
			t.Fatalf("NewArtifactEpoch: %v", err)
		}
		if !bytes.Equal(scanned.Bytes(), packed.Bytes()) {
			t.Errorf("%s n=%d ε=%v: scanned artifact %#016x differs from the packed per-item answers %#016x",
				c.workload, c.n, c.eps, scanned.Checksum(), packed.Checksum())
		}
		if c.n%8 != 0 && members == 0 {
			t.Errorf("%s n=%d ε=%v: the partial-byte case selects no item", c.workload, c.n, c.eps)
		}
	}
}

// cancelingAccess counts point queries and cancels the scan's context
// when asked for item cancelAt.
type cancelingAccess struct {
	oracle.Access
	cancelAt int
	cancel   context.CancelFunc
	probes   int
}

func (c *cancelingAccess) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	c.probes++
	if i == c.cancelAt {
		c.cancel()
	}
	return c.Access.QueryItem(ctx, i)
}

// TestMaterializeScanStopsWithinCheckInterval cancels the scan's
// context before it starts and at item k mid-scan: each fails with
// context.Canceled having probed at most scanCheck items past the
// cancellation.
func TestMaterializeScanStopsWithinCheckInterval(t *testing.T) {
	const n = 20_000
	_, rule, acc := materializeTest(t, n, 5)
	for _, k := range []int{-1, 5_000, 4_095, 4_096} {
		ctx, cancel := context.WithCancel(context.Background())
		if k < 0 {
			cancel()
		}
		access := &cancelingAccess{Access: acc, cancelAt: k, cancel: cancel}
		a, err := MaterializeEpoch(ctx, access, rule, 5, testParams.Seed, 0)
		cancel()
		if a != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at %d: MaterializeEpoch = (%v, %v), want context.Canceled", k, a, err)
		}
		if limit := max(k, 0) + scanCheck; access.probes > limit {
			t.Errorf("canceled at %d: scan probed %d items, want at most %d", k, access.probes, limit)
		}
	}
}

// BenchmarkMaterializeEpoch scans a zipf instance into its artifact, as
// an epoch publish does after the seal: point queries only (no alias
// table), at churn-batch's n = 200k and at 1M, ε = 0.2.
func BenchmarkMaterializeEpoch(b *testing.B) {
	ctx := context.Background()
	for _, size := range []struct {
		name string
		n    int
	}{{"n=200k", 200_000}, {"n=1M", 1_000_000}} {
		b.Run(size.name, func(b *testing.B) {
			gen, err := workload.Generate(workload.Spec{Name: "zipf", N: size.n, Seed: 1})
			if err != nil {
				b.Fatalf("Generate: %v", err)
			}
			acc, err := oracle.NewSliceOracle(gen.Float)
			if err != nil {
				b.Fatalf("NewSliceOracle: %v", err)
			}
			lca, err := core.NewLCAKP(acc, core.Params{Epsilon: 0.2, Seed: 3})
			if err != nil {
				b.Fatalf("NewLCAKP: %v", err)
			}
			rule, err := MaterializeRule(ctx, lca)
			if err != nil {
				b.Fatalf("MaterializeRule: %v", err)
			}
			scan := oracle.NewSliceOracleWithSampler(gen.Float, nil)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := MaterializeEpoch(ctx, scan, rule, 1, 3, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
