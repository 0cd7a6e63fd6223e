package gateway

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

// testParams are the LCA parameters shared by every replica in these
// tests — the consistency mechanism under test. The loose epsilon
// keeps per-query rule computation cheap; consistency is epsilon-blind.
var testParams = core.Params{Epsilon: 0.45, Seed: 2}

// testTenant is the tenant testFleet's replicas serve: the default
// tenant of a gateway configured with Seed testParams.Seed.
var testTenant = engine.TenantID{Instance: 0, Seed: testParams.Seed}

// testFleet starts k independent one-tenant LCA replica servers
// (testTenant) over one shared in-process instance and returns their
// addresses plus a local LCA with identical parameters as the
// bit-exactness baseline.
func testFleet(t testing.TB, n, k int) (addrs []string, servers []*cluster.MultiLCAServer, baseline *core.LCAKP) {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: 17})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for r := 0; r < k; r++ {
		acc, err := oracle.NewSliceOracle(gen.Float)
		if err != nil {
			t.Fatalf("NewSliceOracle: %v", err)
		}
		lca, err := core.NewLCAKP(acc, testParams)
		if err != nil {
			t.Fatalf("NewLCAKP: %v", err)
		}
		srv, err := cluster.NewLCAServer("127.0.0.1:0", testTenant, engine.New(lca))
		if err != nil {
			t.Fatalf("NewLCAServer: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	baseline, err = core.NewLCAKP(acc, testParams)
	if err != nil {
		t.Fatalf("NewLCAKP baseline: %v", err)
	}
	return addrs, servers, baseline
}

func TestCacheLRUEvictionAndHits(t *testing.T) {
	c := newAnswerCache(cacheShardCount) // one entry per shard
	k1 := Key{Instance: 1, Seed: 2, Item: 3}
	c.put(k1, true)
	if got, ok := c.get(k1); !ok || !got {
		t.Fatalf("get after put = (%v, %v), want (true, true)", got, ok)
	}
	// Distinct (Instance, Seed) must not collide on the same item.
	if _, ok := c.get(Key{Instance: 9, Seed: 2, Item: 3}); ok {
		t.Error("cache hit across distinct instance ids")
	}
	// Flood the shard holding k1 until k1 is evicted.
	shard := c.shard(k1)
	for i := 0; i < 10_000; i++ {
		k := Key{Instance: 1, Seed: 2, Item: 100 + i}
		if c.shard(k) == shard {
			c.put(k, false)
		}
	}
	if _, ok := c.get(k1); ok {
		t.Error("k1 survived a flood of its shard; LRU eviction broken")
	}
	if got := c.len(); got > cacheShardCount {
		t.Errorf("cache len %d exceeds capacity %d", got, cacheShardCount)
	}
}

func TestCacheSingleFlightDedup(t *testing.T) {
	c := newAnswerCache(64)
	k := Key{Item: 7}
	var calls atomic.Int64
	release := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]bool, waiters)
	outcomes := make([]outcome, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ans, oc, err := c.do(context.Background(), k, func() (bool, error) {
				calls.Add(1)
				<-release
				return true, nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			results[w] = ans
			outcomes[w] = oc
		}(w)
	}
	// Let every goroutine reach the flight before releasing the leader.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times for %d concurrent callers, want 1", got, waiters)
	}
	leaders, others := 0, 0
	for w := 0; w < waiters; w++ {
		if !results[w] {
			t.Errorf("caller %d got answer false, want true", w)
		}
		if outcomes[w] == outcomeLed {
			leaders++
		} else {
			others++ // shared the flight, or hit the freshly stored entry
		}
	}
	if leaders != 1 || others != waiters-1 {
		t.Errorf("leaders=%d others=%d, want 1 and %d", leaders, others, waiters-1)
	}
	// The answer is now resident.
	if _, oc, _ := c.do(context.Background(), k, func() (bool, error) {
		t.Error("fn ran on a resident key")
		return false, nil
	}); oc != outcomeHit {
		t.Errorf("outcome after flight = %v, want hit", oc)
	}
}

func TestCacheFlightErrorNotCached(t *testing.T) {
	c := newAnswerCache(64)
	k := Key{Item: 1}
	boom := errors.New("boom")
	if _, _, err := c.do(context.Background(), k, func() (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Fatalf("do error = %v, want boom", err)
	}
	ran := false
	if _, _, err := c.do(context.Background(), k, func() (bool, error) { ran = true; return true, nil }); err != nil {
		t.Fatalf("do after error: %v", err)
	}
	if !ran {
		t.Error("failed flight was cached; errors must not populate the cache")
	}
}

func TestGatewayAnswersMatchBaseline(t *testing.T) {
	addrs, _, baseline := testFleet(t, 300, 3)
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	ctx := context.Background()
	for i := 0; i < 300; i += 7 {
		want, err := baseline.Query(ctx, i)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", i, err)
		}
		got, err := gw.InSolution(ctx, i)
		if err != nil {
			t.Fatalf("InSolution(%d): %v", i, err)
		}
		if got != want {
			t.Errorf("item %d: gateway %v, baseline %v", i, got, want)
		}
	}
	// Second pass: every answer must now come from the cache.
	before := gw.Metrics()
	for i := 0; i < 300; i += 7 {
		if _, err := gw.InSolution(ctx, i); err != nil {
			t.Fatalf("cached InSolution(%d): %v", i, err)
		}
	}
	after := gw.Metrics()
	if hits := after.CacheHits - before.CacheHits; hits != 43 {
		t.Errorf("second pass produced %d cache hits, want 43", hits)
	}
}

func TestGatewayBatchMixesCachedAndFetched(t *testing.T) {
	addrs, _, baseline := testFleet(t, 200, 2)
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	ctx := context.Background()
	// Warm items 0..9 through point queries, then batch 0..19 with a
	// duplicate; half served from cache, half fetched, answers exact.
	for i := 0; i < 10; i++ {
		if _, err := gw.InSolution(ctx, i); err != nil {
			t.Fatalf("warm InSolution(%d): %v", i, err)
		}
	}
	indices := make([]int, 0, 21)
	for i := 0; i < 20; i++ {
		indices = append(indices, i)
	}
	indices = append(indices, 5) // duplicate within the batch
	got, err := gw.InSolutionBatch(ctx, indices)
	if err != nil {
		t.Fatalf("InSolutionBatch: %v", err)
	}
	for k, item := range indices {
		want, err := baseline.Query(ctx, item)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", item, err)
		}
		if got[k] != want {
			t.Errorf("batch position %d (item %d): got %v, want %v", k, item, want, got[k])
		}
	}
	m := gw.Metrics()
	if m.CacheHits < 10 {
		t.Errorf("CacheHits = %d, want >= 10 (warmed items)", m.CacheHits)
	}
	if m.CacheMisses < 10 {
		t.Errorf("CacheMisses = %d, want >= 10 (cold items)", m.CacheMisses)
	}
}

// TestGatewayBatchTiersWithDuplicates serves one epoch-pinned batch
// whose positions come from all three tiers — cache hits, artifact
// bits and replica fetches — with a duplicate of each kind. Every
// answer must equal the truth, and the replica must see each distinct
// replica-bound item exactly once, in one frame.
func TestGatewayBatchTiersWithDuplicates(t *testing.T) {
	const stored = 32 // the artifact covers items [0, stored)
	truth := func(i int) bool { return i%3 == 1 }
	be := &scriptedBackend{answer: truth}
	srv, err := cluster.NewQueryServer("127.0.0.1:0", be)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer srv.Close()
	bits := make([]bool, stored)
	for i := range bits {
		bits[i] = truth(i)
	}
	a, err := store.NewArtifactEpoch(0, testParams.Seed, 0, testParams.Epsilon, bits, store.RuleSection{ESmall: -1})
	if err != nil {
		t.Fatalf("NewArtifactEpoch: %v", err)
	}
	gw, err := New(Options{
		Replicas:    []string{srv.Addr()},
		Seed:        testParams.Seed,
		HedgeDelay:  -1,
		MaxAttempts: 1,
		Store:       newTestStore(t, t.TempDir(), a),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	for _, i := range []int{100, 101, 102} {
		gw.cache.put(Key{Seed: testParams.Seed, Item: i}, truth(i))
	}

	indices := []int{
		100, 5, 200, 101, 6, 201, 202, // cached, stored and replica-bound items interleaved
		100, 5, 200, // a duplicate of each kind
		7, 102, 203, 201,
	}
	got, err := gw.InSolutionBatchEpoch(context.Background(), 0, indices)
	if err != nil {
		t.Fatalf("InSolutionBatchEpoch: %v", err)
	}
	for k, i := range indices {
		if got[k] != truth(i) {
			t.Errorf("position %d (item %d) = %v, want %v", k, i, got[k], truth(i))
		}
	}
	be.mu.Lock()
	calls, items := be.calls, append([]int(nil), be.items...)
	be.mu.Unlock()
	slices.Sort(items)
	if want := []int{200, 201, 202, 203}; calls != 1 || !slices.Equal(items, want) {
		t.Errorf("replica saw %d frames carrying %v, want 1 frame carrying %v", calls, items, want)
	}
	if m := gw.Metrics(); m.StoreServes < 3 {
		t.Errorf("StoreServes = %d, want >= 3 (items 5, 6, 7)", m.StoreServes)
	}
	// The fetched items are cached: the same batch again needs no frame.
	if _, err := gw.InSolutionBatchEpoch(context.Background(), 0, indices); err != nil {
		t.Fatalf("second InSolutionBatchEpoch: %v", err)
	}
	be.mu.Lock()
	if be.calls != 1 {
		t.Errorf("second batch sent %d more frames, want 0", be.calls-1)
	}
	be.mu.Unlock()
}

// TestGatewayCacheDisabledBatchUsesArtifactTier pins that a gateway
// without an answer cache still serves batches from its store: the
// artifact tier does not depend on the cache. The first batch finds
// the artifact through the store, the second reads the artifact that
// store hit installed; neither may reach the replica, whose answers
// are wrong on purpose.
func TestGatewayCacheDisabledBatchUsesArtifactTier(t *testing.T) {
	const stored = 16
	truth := func(i int) bool { return i%3 == 1 }
	be := &scriptedBackend{answer: func(i int) bool { return !truth(i) }}
	srv, err := cluster.NewQueryServer("127.0.0.1:0", be)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer srv.Close()
	bits := make([]bool, stored)
	for i := range bits {
		bits[i] = truth(i)
	}
	a, err := store.NewArtifactEpoch(0, testParams.Seed, 0, testParams.Epsilon, bits, store.RuleSection{ESmall: -1})
	if err != nil {
		t.Fatalf("NewArtifactEpoch: %v", err)
	}
	gw, err := New(Options{
		Replicas:   []string{srv.Addr()},
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		CacheSize:  -1,
		Store:      newTestStore(t, t.TempDir(), a),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	indices := []int{1, 2, 4, 1}
	for round := 1; round <= 2; round++ {
		got, err := gw.InSolutionBatch(context.Background(), indices)
		if err != nil {
			t.Fatalf("round %d: InSolutionBatch: %v", round, err)
		}
		for k, i := range indices {
			if got[k] != truth(i) {
				t.Errorf("round %d: position %d (item %d) = %v, want %v", round, k, i, got[k], truth(i))
			}
		}
		m := gw.Metrics()
		if m.Attempts != 0 || m.StoreServes != int64(round*len(indices)) {
			t.Errorf("round %d: Attempts = %d, StoreServes = %d, want 0 and %d",
				round, m.Attempts, m.StoreServes, round*len(indices))
		}
	}
}

// slowAccess delays every access by d before forwarding it, or fails
// with the context's error if it ends first. A sample frame is one
// access.
type slowAccess struct {
	oracle.Access
	d time.Duration
}

// delayed is the middleware that makes an access slow.
func delayed(d time.Duration) engine.Middleware {
	return func(next oracle.Access) oracle.Access { return slowAccess{Access: next, d: d} }
}

func (s slowAccess) wait(ctx context.Context) error {
	timer := time.NewTimer(s.d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s slowAccess) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	if err := s.wait(ctx); err != nil {
		return knapsack.Item{}, err
	}
	return s.Access.QueryItem(ctx, i)
}

func (s slowAccess) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	if err := s.wait(ctx); err != nil {
		return 0, err
	}
	return s.Access.SampleFrame(ctx, src, dst)
}

func (s slowAccess) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := oracle.SampleOne(ctx, s, src)
	return d.Index, d.Item, err
}

// TestGatewayConcurrentMissesShareReplicaRun sends a burst of 16
// point misses for distinct items through a gateway to one replica
// whose oracle answers slowly, so the misses overlap there. Each miss
// is its own frame, and the replica shares its in-flight derivation
// among the overlapping ones: it draws fewer runs' samples than it
// serves queries, and every answer is the baseline's.
func TestGatewayConcurrentMissesShareReplicaRun(t *testing.T) {
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: 200, Seed: 17})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	lca, err := core.NewLCAKP(engine.Wrap(engine.Chain(acc, delayed(20*time.Millisecond))), testParams)
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	eng := engine.New(lca)
	srv, err := cluster.NewLCAServer("127.0.0.1:0", testTenant, eng)
	if err != nil {
		t.Fatalf("NewLCAServer: %v", err)
	}
	defer srv.Close()
	baseline, err := core.NewLCAKP(acc, testParams)
	if err != nil {
		t.Fatalf("NewLCAKP baseline: %v", err)
	}
	gw, err := New(Options{Replicas: []string{srv.Addr()}, Seed: testParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	ctx := context.Background()
	const burst = 16
	var wg sync.WaitGroup
	answers := make([]bool, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := gw.InSolution(ctx, i)
			if err != nil {
				t.Errorf("InSolution(%d): %v", i, err)
				return
			}
			answers[i] = got
		}(i)
	}
	wg.Wait()
	for i := 0; i < burst; i++ {
		want, err := baseline.Query(ctx, i)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", i, err)
		}
		if answers[i] != want {
			t.Errorf("item %d: gateway %v, baseline %v", i, answers[i], want)
		}
	}
	tot := eng.Totals()
	if tot.Queries != burst {
		t.Errorf("replica served %d engine queries, want one per miss (%d)", tot.Queries, burst)
	}
	p := lca.Params()
	if run := int64(p.LargeSamples + p.QuantileSamples); tot.Samples >= burst*run {
		t.Errorf("replica drew %d samples for %d overlapping misses, want fewer than %d runs' worth (%d)",
			tot.Samples, burst, burst, burst*run)
	}
}

func TestGatewayHedgingFiresAndWins(t *testing.T) {
	// One real replica and one black hole that accepts connections and
	// never answers. Routed to the black hole first, the query must be
	// rescued by the hedge to the real replica, well before the RPC
	// timeout.
	addrs, _, baseline := testFleet(t, 100, 1)
	hole := newBlackHole(t)
	gw, err := New(Options{
		Replicas:    []string{hole, addrs[0]},
		Seed:        testParams.Seed,
		HedgeDelay:  30 * time.Millisecond,
		RPCTimeout:  5 * time.Second,
		CacheSize:   -1,
		MaxAttempts: 1,
		RouteSeed:   3,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	ctx := context.Background()
	start := time.Now()
	sawHedgeWin := false
	for i := 0; i < 30 && !sawHedgeWin; i++ {
		got, err := gw.InSolution(ctx, i)
		if err != nil {
			t.Fatalf("InSolution(%d): %v", i, err)
		}
		want, err := baseline.Query(ctx, i)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", i, err)
		}
		if got != want {
			t.Errorf("item %d: gateway %v, baseline %v", i, got, want)
		}
		sawHedgeWin = gw.Metrics().HedgeWins > 0
	}
	if !sawHedgeWin {
		t.Fatalf("no hedge win after 30 queries against a black-hole replica (metrics %+v)", gw.Metrics())
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("hedged queries took %v; hedging should rescue them in ~the hedge delay", elapsed)
	}
}

func TestGatewayNoReplicas(t *testing.T) {
	if _, err := New(Options{}); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("New with no replicas: error = %v, want ErrNoReplicas", err)
	}
}

func TestGatewayServesWireProtocol(t *testing.T) {
	// A gateway mounted behind cluster.NewQueryServer is
	// indistinguishable from a replica to an unmodified LCAClient.
	addrs, _, baseline := testFleet(t, 150, 2)
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	front, err := cluster.NewQueryServer("127.0.0.1:0", gw)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer front.Close()

	client, err := cluster.DialLCA(front.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA(gateway): %v", err)
	}
	defer client.Close()

	ctx := context.Background()
	if err := client.Ping(ctx); err != nil {
		t.Fatalf("Ping through gateway: %v", err)
	}
	indices := []int{0, 5, 50, 149}
	got, err := client.InSolutionBatch(ctx, indices)
	if err != nil {
		t.Fatalf("InSolutionBatch through gateway: %v", err)
	}
	for k, item := range indices {
		want, err := baseline.Query(ctx, item)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", item, err)
		}
		if got[k] != want {
			t.Errorf("item %d through wire: got %v, want %v", item, got[k], want)
		}
	}
}

// newBlackHole listens, accepts, and never responds — the stuck
// replica for hedging tests. Connections are severed at test cleanup.
func newBlackHole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("black hole listen: %v", err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			_ = conn.Close()
		}
	})
	return ln.Addr().String()
}
