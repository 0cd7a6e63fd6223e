package gateway

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/epoch"
	"lcakp/internal/oracle"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

// BenchmarkGatewayVsDirect compares repeat-query serving through the
// gateway (answers resident in the deterministic cache) against direct
// single-connection queries to a replica (every query re-runs the LCA
// pipeline). The gap is the operational value of Theorem 4.1: because
// answers are immutable, the gateway may serve them from memory
// forever, and the cached path is orders of magnitude faster than
// recomputation — the acceptance bar is >= 5x.
func BenchmarkGatewayVsDirect(b *testing.B) {
	const n = 300
	addrs, _, _ := testFleet(b, n, 1)
	ctx := context.Background()

	b.Run("direct", func(b *testing.B) {
		client, err := dialDirect(addrs[0])
		if err != nil {
			b.Fatalf("dial direct: %v", err)
		}
		defer client.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.InSolution(ctx, i%n); err != nil {
				b.Fatalf("InSolution: %v", err)
			}
		}
	})

	b.Run("gateway-cached", func(b *testing.B) {
		gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		defer gw.Close()
		for i := 0; i < n; i++ { // warm every key
			if _, err := gw.InSolution(ctx, i); err != nil {
				b.Fatalf("warm InSolution: %v", err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gw.InSolution(ctx, i%n); err != nil {
				b.Fatalf("InSolution: %v", err)
			}
		}
	})

	b.Run("gateway-batch-cached", func(b *testing.B) {
		gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		defer gw.Close()
		indices := make([]int, n)
		for i := range indices {
			indices[i] = i
		}
		if _, err := gw.InSolutionBatch(ctx, indices); err != nil {
			b.Fatalf("warm InSolutionBatch: %v", err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gw.InSolutionBatch(ctx, indices); err != nil {
				b.Fatalf("InSolutionBatch: %v", err)
			}
		}
	})
}

// BenchmarkGatewayFrontDoorCached measures a cached answer served
// through the gateway's wire front door: one client round trip through
// cluster.NewQueryServer over a warmed gateway, the path a client
// holding a connection to lcagateway takes. The unpinned client call
// sends engine.EpochCurrent and the pinned one epoch 0; both resolve
// through the same (tenant, epoch) path, and ALLOC_BUDGET.json pins
// their allocations.
func BenchmarkGatewayFrontDoorCached(b *testing.B) {
	const n = 300
	addrs, _, _ := testFleet(b, n, 1)
	ctx := context.Background()
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer gw.Close()
	for i := 0; i < n; i++ { // warm every key
		if _, err := gw.InSolution(ctx, i); err != nil {
			b.Fatalf("warm InSolution: %v", err)
		}
	}
	front, err := cluster.NewQueryServer("127.0.0.1:0", gw)
	if err != nil {
		b.Fatalf("NewQueryServer: %v", err)
	}
	defer front.Close()
	client, err := cluster.DialLCA(front.Addr(), 0)
	if err != nil {
		b.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	b.Run("unpinned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := client.InSolution(ctx, i%n); err != nil {
				b.Fatalf("InSolution: %v", err)
			}
		}
	})
	b.Run("pinned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := client.InSolutionEpoch(ctx, 0, i%n); err != nil {
				b.Fatalf("InSolutionEpoch: %v", err)
			}
		}
	})
}

// BenchmarkGatewayStoreServed measures answers the artifact tier
// serves, on a store-backed gateway whose tenant is at epoch 1 with
// the artifacts of epochs 0 and 1 stored (4,096 items each, a 256-entry
// cache). point and batch64 (64-item batches) are unpinned: the first
// frame's store hit installs epoch 1's artifact, and every later answer
// is read from that pinned bitset with no cache lookup, store call or
// insert. batch64-old-epoch pins its batches to the retained epoch 0,
// which is never installed, so every position takes the slow path: a
// cache miss, then a store lookup; store answers never enter the
// cache. The replica never answers.
func BenchmarkGatewayStoreServed(b *testing.B) {
	const items, cacheSize, batch = 4096, 256, 64
	srv, err := cluster.NewQueryServer("127.0.0.1:0", &scriptedBackend{})
	if err != nil {
		b.Fatalf("NewQueryServer: %v", err)
	}
	defer srv.Close()
	var arts []*store.Artifact
	for ep := uint64(0); ep < 2; ep++ {
		bits := make([]bool, items)
		for i := range bits {
			bits[i] = uint64(i)%3 == ep
		}
		a, err := store.NewArtifactEpoch(0, testParams.Seed, ep, testParams.Epsilon, bits, store.RuleSection{ESmall: -1})
		if err != nil {
			b.Fatalf("NewArtifactEpoch(%d): %v", ep, err)
		}
		arts = append(arts, a)
	}
	gw, err := New(Options{
		Replicas:   []string{srv.Addr()},
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		CacheSize:  cacheSize,
		Store:      newTestStore(b, b.TempDir(), arts...),
	})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer gw.Close()
	if err := gw.SetTenantEpoch(gw.def.id, 1); err != nil {
		b.Fatalf("SetTenantEpoch: %v", err)
	}
	ctx := context.Background()
	next := 0

	b.Run("point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gw.InSolution(ctx, next%items); err != nil {
				b.Fatalf("InSolution: %v", err)
			}
			next++
		}
	})

	indices := make([]int, batch)
	for _, bc := range []struct {
		name string
		ep   engine.EpochID
	}{{"batch64", engine.EpochCurrent}, {"batch64-old-epoch", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := range indices {
					indices[k] = next % items
					next++
				}
				if _, err := gw.InSolutionBatchEpoch(ctx, bc.ep, indices); err != nil {
					b.Fatalf("InSolutionBatchEpoch: %v", err)
				}
			}
		})
	}
	if m := gw.Metrics(); m.Attempts != 0 || m.CacheHits != 0 {
		b.Errorf("store-served benchmark made %d replica attempts and %d cache hits, want 0 and 0", m.Attempts, m.CacheHits)
	}
}

// BenchmarkGatewayConcurrentMiss measures gateway misses served by
// replicas under concurrent load: k closed-loop clients point-query
// distinct items through a gateway without store or cache, in front of
// two replicas over one in-process instance server (zipf, n = 1M,
// ε = 0.2). It reports answers/s and the p99 latency of one query.
//
//   - derive-bound: each replica serves the stateless LCA over a
//     RemoteAccess to the instance server, so an answer costs a
//     derivation, which overlapping queries at one replica share;
//   - rule-served: each replica serves epoch.Manager's sealed rule, so
//     an answer costs one rule decision and nothing is derived.
func BenchmarkGatewayConcurrentMiss(b *testing.B) {
	const n = 1_000_000
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := cluster.NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { inst.Close() })
	id := engine.TenantID{Instance: 0, Seed: 7}
	params := core.Params{Epsilon: 0.2, Seed: id.Seed}
	derive := func(ctx context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		remote, err := cluster.DialInstanceContext(ctx, inst.Addr(), 0, 0)
		if err != nil {
			return engine.TenantState{}, err
		}
		lca, err := core.NewLCAKP(engine.Wrap(remote), params)
		if err != nil {
			return engine.TenantState{}, err
		}
		return engine.TenantState{Engine: engine.New(lca), Close: remote.Close}, nil
	}
	mgr, err := epoch.NewManager(context.Background(), id, gen.Float, params, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mix := range []struct {
		name    string
		factory engine.VersionedTenantFactory
	}{{"derive-bound", derive}, {"rule-served", mgr.Factory()}} {
		var addrs []string
		for r := 0; r < 2; r++ {
			table := engine.NewVersionedTenantTable(mix.factory, 0)
			b.Cleanup(func() { table.Close() })
			srv, err := cluster.NewMultiLCAServer("127.0.0.1:0", table)
			if err != nil {
				b.Fatal(err)
			}
			srv.SetDefaultTenant(id)
			b.Cleanup(func() { srv.Close() })
			addrs = append(addrs, srv.Addr())
		}
		for _, k := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/k=%d", mix.name, k), func(b *testing.B) {
				gw, err := New(Options{Replicas: addrs, Seed: id.Seed, HedgeDelay: -1, CacheSize: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer gw.Close()
				benchConcurrentMisses(b, gw, n, k)
			})
		}
	}
}

// benchConcurrentMisses drives b.N point queries from k closed-loop
// clients, the i-th query asking item i mod n, and reports answers/s
// and the p99 query latency in µs.
func benchConcurrentMisses(b *testing.B, gw *Gateway, n, k int) {
	ctx := context.Background()
	// A few queries first, so the run measures serving rather than the
	// replicas' tenant derivations and first dials.
	for i := 0; i < 8; i++ {
		if _, err := gw.InSolution(ctx, n-1-i); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	lat := make([][]time.Duration, k)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := range k {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				t0 := time.Now()
				if _, err := gw.InSolution(ctx, int(i%int64(n))); err != nil {
					b.Error(err)
					return
				}
				lat[c] = append(lat[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	all := slices.Concat(lat...)
	slices.Sort(all)
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "answers/s")
	if len(all) > 0 {
		b.ReportMetric(float64(all[(len(all)*99+99)/100-1].Microseconds()), "p99_us")
	}
}
