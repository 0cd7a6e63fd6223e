package gateway

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/oracle"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

// epochParams are the LCA parameters of the epoch tests. ε = 0.25 is
// deliberate: the planted-large workload plants items carrying ~8% of
// total profit each, above ε² = 0.0625, so every epoch's solution is
// non-empty and moves when churn re-seeds the instance. (The uniform
// family normalizes every profit to ~1/n — below any realistic ε² —
// leaving the solution empty and identical across epochs, which would
// let a cross-epoch cache bug pass undetected.)
var epochParams = core.Params{Epsilon: 0.25, Seed: testParams.Seed}

// epochOracle generates the deterministic instance of one epoch of the
// default test tenant. Sealed epochs perturb the workload seed,
// modeling churn that visibly changes the solution.
func epochOracle(t testing.TB, n int, ep uint64) *oracle.SliceOracle {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "planted-large", N: n, Seed: 17 + ep*1000003, PlantedLarge: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	return acc
}

// epochBaseline computes the reference answers of one epoch locally.
func epochBaseline(t testing.TB, n int, ep uint64) []bool {
	t.Helper()
	lca, err := core.NewLCAKP(epochOracle(t, n, ep), epochParams)
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	out := make([]bool, n)
	for i := range out {
		in, err := lca.Query(context.Background(), i)
		if err != nil {
			t.Fatalf("Query(%d): %v", i, err)
		}
		out[i] = in
	}
	return out
}

// epochFleet starts k epoch-aware replica servers: multi-tenant
// servers over versioned tables whose factory derives any epoch of the
// default tenant on demand, with untenanted frames routed to it.
func epochFleet(t testing.TB, n, k int) (addrs []string, servers []*cluster.MultiLCAServer, tables []*engine.TenantTable) {
	t.Helper()
	id := engine.TenantID{Instance: 0, Seed: epochParams.Seed}
	for r := 0; r < k; r++ {
		factory := func(_ context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
			lca, err := core.NewLCAKP(epochOracle(t, n, uint64(vt.Epoch)),
				core.Params{Epsilon: epochParams.Epsilon, Seed: vt.Tenant.Seed})
			if err != nil {
				return engine.TenantState{}, err
			}
			return engine.TenantState{Engine: engine.New(lca)}, nil
		}
		table := engine.NewVersionedTenantTable(factory, 8)
		t.Cleanup(func() { table.Close() })
		srv, err := cluster.NewMultiLCAServer("127.0.0.1:0", table)
		if err != nil {
			t.Fatalf("NewMultiLCAServer: %v", err)
		}
		srv.SetDefaultTenant(id)
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		tables = append(tables, table)
		addrs = append(addrs, srv.Addr())
	}
	return addrs, servers, tables
}

// sealEpoch advances the gateway and the fleet to epoch ep.
func sealEpoch(t testing.TB, gw *Gateway, tables []*engine.TenantTable, ep engine.EpochID) {
	t.Helper()
	id := engine.TenantID{Instance: 0, Seed: epochParams.Seed}
	if err := gw.SetTenantEpoch(id, ep); err != nil {
		t.Fatalf("SetTenantEpoch(%d): %v", ep, err)
	}
	for _, table := range tables {
		if err := table.SetCurrentEpoch(id, ep); err != nil {
			t.Fatalf("SetCurrentEpoch(%d): %v", ep, err)
		}
	}
}

// TestEpochE2EPinnedBitIdentityAcrossRollover is the dynamic-instance
// acceptance run (criterion a): a query pinned to epoch e returns
// bit-identical answers before, during, and after epoch e+1 is sealed
// — and still after a replica is killed mid-sequence, because the pin
// rides every retry and failover frame. Unpinned queries follow the
// tenant's current epoch.
func TestEpochE2EPinnedBitIdentityAcrossRollover(t *testing.T) {
	const n = 96
	addrs, servers, tables := epochFleet(t, n, 2)
	want0, want1 := epochBaseline(t, n, 0), epochBaseline(t, n, 1)
	differs := false
	for i := range want0 {
		if want0[i] != want1[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("epochs 0 and 1 answer identically; churn model broken, the test would prove nothing")
	}
	ctx := context.Background()
	id := engine.TenantID{Instance: 0, Seed: epochParams.Seed}

	gw, err := New(Options{Replicas: addrs, Seed: epochParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	// Before sealing: unpinned and pinned-to-0 agree with the pre-churn
	// baseline.
	for i := 0; i < n; i++ {
		if got, err := gw.InSolution(ctx, i); err != nil || got != want0[i] {
			t.Fatalf("pre-seal unpinned item %d = (%v, %v), want %v", i, got, err, want0[i])
		}
		if got, err := gw.InSolutionEpoch(ctx, 0, i); err != nil || got != want0[i] {
			t.Fatalf("pre-seal pinned-0 item %d = (%v, %v), want %v", i, got, err, want0[i])
		}
	}

	sealEpoch(t, gw, tables, 1)
	if ep, ok := gw.TenantEpoch(id); !ok || ep != 1 {
		t.Fatalf("TenantEpoch = (%d, %v), want (1, true)", ep, ok)
	}

	// After sealing: pinned epoch 0 is unchanged — through the warm
	// cache on gw, and through the wire on a cold gateway that never
	// saw epoch 0 served (its pinned frames must make the replicas
	// re-derive the old epoch).
	gwCold, err := New(Options{Replicas: addrs, Seed: epochParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New(cold): %v", err)
	}
	defer gwCold.Close()
	sealEpoch(t, gwCold, tables, 1)
	batch0 := make([]int, n)
	for i := range batch0 {
		batch0[i] = i
	}
	coldPinned, err := gwCold.InSolutionBatchEpoch(ctx, 0, batch0)
	if err != nil {
		t.Fatalf("cold pinned-0 batch: %v", err)
	}
	for i := 0; i < n; i++ {
		if got, err := gw.InSolutionEpoch(ctx, 0, i); err != nil || got != want0[i] {
			t.Fatalf("post-seal pinned-0 item %d = (%v, %v), want %v", i, got, err, want0[i])
		}
		if coldPinned[i] != want0[i] {
			t.Fatalf("post-seal cold pinned-0 item %d = %v, want %v", i, coldPinned[i], want0[i])
		}
		// Unpinned, pinned-1, and the current-epoch sentinel all serve
		// the sealed epoch.
		if got, err := gw.InSolution(ctx, i); err != nil || got != want1[i] {
			t.Fatalf("post-seal unpinned item %d = (%v, %v), want %v", i, got, err, want1[i])
		}
		if got, err := gw.InSolutionEpoch(ctx, 1, i); err != nil || got != want1[i] {
			t.Fatalf("post-seal pinned-1 item %d = (%v, %v), want %v", i, got, err, want1[i])
		}
		if got, err := gw.InSolutionEpoch(ctx, engine.EpochCurrent, i); err != nil || got != want1[i] {
			t.Fatalf("post-seal sentinel item %d = (%v, %v), want %v", i, got, err, want1[i])
		}
	}

	// Kill a replica mid-sequence. A third gateway (cold cache, so
	// every query reaches the wire) must still serve pinned epoch 0
	// bit-identically through the survivor.
	servers[0].Close()
	gwKill, err := New(Options{Replicas: addrs, Seed: epochParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New(kill): %v", err)
	}
	defer gwKill.Close()
	sealEpoch(t, gwKill, tables[1:], 1)
	killPinned, err := gwKill.InSolutionBatchEpoch(ctx, 0, batch0)
	if err != nil {
		t.Fatalf("pinned-0 batch after replica kill: %v", err)
	}
	for i, got := range killPinned {
		if got != want0[i] {
			t.Fatalf("after replica kill: pinned-0 item %d = %v, want %v", i, got, want0[i])
		}
	}
	if got, err := gwKill.InSolution(ctx, 3); err != nil || got != want1[3] {
		t.Fatalf("after replica kill: unpinned item 3 = (%v, %v), want %v", got, err, want1[3])
	}
}

// TestEpochCacheIsolationConcurrent pins cache isolation under
// concurrency (run under -race in CI): a gateway serving epochs 0 and
// 1 simultaneously must never return a cross-epoch cache hit — every
// answer matches its own epoch's baseline even while both epochs churn
// through the same shards and single-flight tables.
func TestEpochCacheIsolationConcurrent(t *testing.T) {
	const n = 64
	addrs, _, tables := epochFleet(t, n, 1)
	want0, want1 := epochBaseline(t, n, 0), epochBaseline(t, n, 1)
	sane := false
	for i := range want0 {
		if want0[i] != want1[i] {
			sane = true
			break
		}
	}
	if !sane {
		t.Fatal("epochs 0 and 1 answer identically; cross-epoch contamination would be invisible")
	}
	ctx := context.Background()

	gw, err := New(Options{
		Replicas:   addrs,
		Seed:       epochParams.Seed,
		HedgeDelay: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	sealEpoch(t, gw, tables, 1)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Half the workers pin the old epoch, half ride the
				// current one; both hammer the same items.
				if w%2 == 0 {
					got, err := gw.InSolutionEpoch(ctx, 0, i)
					if err != nil {
						errs <- err
						return
					}
					if got != want0[i] {
						t.Errorf("worker %d: pinned-0 item %d = %v, want %v (cross-epoch contamination)", w, i, got, want0[i])
					}
				} else {
					got, err := gw.InSolution(ctx, i)
					if err != nil {
						errs <- err
						return
					}
					if got != want1[i] {
						t.Errorf("worker %d: epoch-1 item %d = %v, want %v (cross-epoch contamination)", w, i, got, want1[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent epoch query: %v", err)
	}

	id := engine.TenantID{Instance: 0, Seed: epochParams.Seed}
	tm, ok := gw.TenantMetrics(id)
	if !ok {
		t.Fatal("TenantMetrics: default tenant missing")
	}
	if tm.Epoch != 1 {
		t.Errorf("TenantMetrics.Epoch = %d, want 1", tm.Epoch)
	}
	if tm.EpochQueries == 0 {
		t.Error("TenantMetrics.EpochQueries = 0, want > 0 (every query here was epoch-addressed)")
	}
}

// TestEpochSkewReplicasAheadOfGateway rolls the replicas to epoch 1
// before the gateway. A gateway still at epoch 0 must answer unpinned
// and epoch-0-pinned queries with epoch-0 bits whichever query comes
// first, in process and through its wire front door, and again with
// the epoch-0 artifact in its store: every frame it sends a replica
// names (tenant, epoch), so no replica can answer from its own current
// epoch on the gateway's behalf.
func TestEpochSkewReplicasAheadOfGateway(t *testing.T) {
	const n = 96
	want0, want1 := epochBaseline(t, n, 0), epochBaseline(t, n, 1)
	var differ []int
	for i := range want0 {
		if want0[i] != want1[i] {
			differ = append(differ, i)
		}
	}
	if len(differ) == 0 {
		t.Fatal("epochs 0 and 1 answer identically; the skew would be invisible")
	}
	ctx := context.Background()
	id := engine.TenantID{Instance: 0, Seed: epochParams.Seed}
	for _, tc := range []struct {
		name          string
		unpinnedFirst bool
		store         bool
	}{
		{"unpinned-first", true, false},
		{"pinned-first", false, false},
		{"store", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, _, tables := epochFleet(t, n, 2)
			for _, table := range tables {
				if err := table.SetCurrentEpoch(id, 1); err != nil {
					t.Fatalf("SetCurrentEpoch: %v", err)
				}
			}
			opts := Options{Replicas: addrs, Seed: epochParams.Seed, HedgeDelay: -1}
			if tc.store {
				opts.Store = newTestStore(t, t.TempDir(), materializeEpochArtifact(t, n, 0))
			}
			gw, err := New(opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer gw.Close()
			front, err := cluster.NewQueryServer("127.0.0.1:0", gw)
			if err != nil {
				t.Fatalf("NewQueryServer: %v", err)
			}
			defer front.Close()
			client, err := cluster.DialLCA(front.Addr(), 5*time.Second)
			if err != nil {
				t.Fatalf("DialLCA: %v", err)
			}
			defer client.Close()

			type ask struct {
				name string
				fn   func(int) (bool, error)
			}
			asks := []ask{
				{"unpinned", func(i int) (bool, error) { return gw.InSolution(ctx, i) }},
				{"pinned-0", func(i int) (bool, error) { return gw.InSolutionEpoch(ctx, 0, i) }},
				{"wire unpinned", func(i int) (bool, error) { return client.InSolution(ctx, i) }},
				{"wire pinned-0", func(i int) (bool, error) {
					in, _, err := client.InSolutionEpoch(ctx, 0, i)
					return in, err
				}},
			}
			if !tc.unpinnedFirst {
				asks[0], asks[1] = asks[1], asks[0]
				asks[2], asks[3] = asks[3], asks[2]
			}
			wrong := 0
			for _, a := range asks {
				for _, i := range differ {
					got, err := a.fn(i)
					if err != nil {
						t.Fatalf("%s item %d: %v", a.name, i, err)
					}
					if got != want0[i] {
						wrong++
						t.Errorf("%s item %d = %v, want the epoch-0 bit %v", a.name, i, got, want0[i])
					}
				}
			}
			if wrong > 0 {
				t.Logf("%d of %d answers carried epoch-1 bits", wrong, len(asks)*len(differ))
			}
		})
	}
}

// TestEpochQueriesCountSealedEpochsOnly holds the per-tenant epoch
// counter to its help text: queries pinned to epoch 0 are not served
// at a sealed epoch and count nothing, while unpinned queries after a
// roll are and count one each.
func TestEpochQueriesCountSealedEpochsOnly(t *testing.T) {
	const n = 16
	addrs, _, tables := epochFleet(t, n, 1)
	ctx := context.Background()
	id := engine.TenantID{Instance: 0, Seed: epochParams.Seed}
	gw, err := New(Options{Replicas: addrs, Seed: epochParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	for i := 0; i < 10; i++ {
		if _, err := gw.InSolutionEpoch(ctx, 0, i); err != nil {
			t.Fatalf("pinned-0 query: %v", err)
		}
	}
	if _, err := gw.InSolutionBatchEpoch(ctx, 0, []int{1, 2, 3}); err != nil {
		t.Fatalf("pinned-0 batch: %v", err)
	}
	if tm, _ := gw.TenantMetrics(id); tm.EpochQueries != 0 {
		t.Errorf("after epoch-0 pins: EpochQueries = %d, want 0", tm.EpochQueries)
	}

	sealEpoch(t, gw, tables, 1)
	for i := 0; i < 5; i++ {
		if _, err := gw.InSolution(ctx, i); err != nil {
			t.Fatalf("unpinned query: %v", err)
		}
	}
	if _, err := gw.InSolutionBatch(ctx, []int{1, 2, 3}); err != nil {
		t.Fatalf("unpinned batch: %v", err)
	}
	if tm, _ := gw.TenantMetrics(id); tm.EpochQueries != 8 {
		t.Errorf("after 8 unpinned queries at epoch 1: EpochQueries = %d, want 8", tm.EpochQueries)
	}
}

// materializeEpochArtifact materializes one epoch of the default test
// tenant into an artifact.
func materializeEpochArtifact(t testing.TB, n int, ep uint64) *store.Artifact {
	t.Helper()
	acc := epochOracle(t, n, ep)
	lca, err := core.NewLCAKP(acc, epochParams)
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	ctx := context.Background()
	rule, err := store.MaterializeRule(ctx, lca)
	if err != nil {
		t.Fatalf("MaterializeRule: %v", err)
	}
	a, err := store.MaterializeEpoch(ctx, acc, rule, 0, epochParams.Seed, ep)
	if err != nil {
		t.Fatalf("MaterializeEpoch: %v", err)
	}
	return a
}

// TestStorePullAtBootAndRollZeroFetchOnMiss pins the one artifact
// transfer direction: the tenant's owner materializes, and a gateway
// that does not own the tenant pulls each current-epoch artifact from
// it — at boot (WarmAllFromStore) and after a roll (SetTenantEpoch) —
// before its first query at that epoch. Once the owner is gone, the
// puller serves both epochs from its own store with no further fill
// and zero replica traffic.
func TestStorePullAtBootAndRollZeroFetchOnMiss(t *testing.T) {
	const n = 64
	const sealedEpoch = 2
	addrs, _, _ := epochFleet(t, n, 1)
	ctx := context.Background()
	id := engine.TenantID{Instance: 0, Seed: epochParams.Seed}
	want := map[engine.EpochID][]bool{0: epochBaseline(t, n, 0), sealedEpoch: epochBaseline(t, n, sealedEpoch)}

	// Owner: holds epoch 0, mounted on the wire, then materializes the
	// sealed epoch.
	gwOwner, err := New(Options{
		Replicas:   addrs,
		Seed:       epochParams.Seed,
		HedgeDelay: -1,
		Store:      newTestStore(t, t.TempDir(), materializeEpochArtifact(t, n, 0)),
	})
	if err != nil {
		t.Fatalf("New(owner): %v", err)
	}
	defer gwOwner.Close()
	ownerSrv, err := cluster.NewQueryServer("127.0.0.1:0", gwOwner)
	if err != nil {
		t.Fatalf("NewQueryServer(owner): %v", err)
	}
	defer ownerSrv.Close()
	if err := gwOwner.opts.Store.Put(ctx, materializeEpochArtifact(t, n, sealedEpoch)); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// Puller: empty store, at an address the ring places as a
	// non-owner of the tenant.
	gwPull, err := New(Options{
		Replicas:   addrs,
		Seed:       epochParams.Seed,
		HedgeDelay: -1,
		Store:      newTestStore(t, t.TempDir()),
		Peers:      []string{ownerSrv.Addr()},
		SelfAddr:   nonOwnerSelf(t, id, 0, ownerSrv.Addr()),
	})
	if err != nil {
		t.Fatalf("New(puller): %v", err)
	}
	defer gwPull.Close()
	pulled := gwPull.tenants[id]

	warmed, err := gwPull.WarmAllFromStore(ctx)
	if err != nil {
		t.Fatalf("WarmAllFromStore: %v", err)
	}
	if warmed != n || pulled.artifactAt(0) == nil {
		t.Fatalf("after boot: warmed %d answers, epoch-0 artifact installed %v; want %d and true",
			warmed, pulled.artifactAt(0) != nil, n)
	}

	for _, gw := range []*Gateway{gwOwner, gwPull} {
		if err := gw.SetTenantEpoch(id, sealedEpoch); err != nil {
			t.Fatalf("SetTenantEpoch: %v", err)
		}
	}
	gwPull.peerTier.wg.Wait() // the roll's background pull
	if pulled.artifactAt(sealedEpoch) == nil {
		t.Fatalf("after the roll: epoch-%d artifact not installed (peer fill errors: %d)",
			sealedEpoch, gwPull.Metrics().PeerFillErrors)
	}
	if m := gwPull.Metrics(); m.PeerFills != 2 || m.PeerFillErrors != 0 {
		t.Fatalf("after boot and roll: PeerFills = %d PeerFillErrors = %d, want 2 and 0", m.PeerFills, m.PeerFillErrors)
	}

	// Zero fetch-on-miss: with the owner gone, both epochs serve from
	// the puller's store — no further fill, no replica attempt.
	if err := ownerSrv.Close(); err != nil {
		t.Fatalf("close owner server: %v", err)
	}
	for _, ep := range []engine.EpochID{0, sealedEpoch} {
		for i := 0; i < n; i++ {
			got, err := gwPull.InSolutionEpoch(ctx, ep, i)
			if err != nil {
				t.Fatalf("InSolutionEpoch(%d, %d): %v", uint64(ep), i, err)
			}
			if got != want[ep][i] {
				t.Errorf("epoch-%d item %d = %v, want %v", uint64(ep), i, got, want[ep][i])
			}
		}
	}
	m := gwPull.Metrics()
	if m.Attempts != 0 || m.StoreServes != 2*n || m.PeerFills != 2 {
		t.Errorf("sweep: Attempts/StoreServes/PeerFills = %d/%d/%d, want 0/%d/2",
			m.Attempts, m.StoreServes, m.PeerFills, 2*n)
	}
}

// TestEpochRollNeverServesOldArtifactBits holds the installed-artifact
// tier to the epoch its frames resolve to. Readers send unpinned batch
// and point frames through the wire front door while a roller moves a
// store-backed gateway through epochs 1..4: odd epochs Put the
// artifact and then roll (the roll installs it), even epochs roll
// first and Put later, so for a while the installed artifact is the
// previous epoch's. Every answer must equal the reference of the epoch
// its response echoes; a frame of epoch e served from epoch e-1's
// bitset fails on the items the two epochs disagree on.
func TestEpochRollNeverServesOldArtifactBits(t *testing.T) {
	const n, last, readers, framesPerPhase = 96, 4, 2, 40
	ctx := context.Background()
	id := engine.TenantID{Instance: 0, Seed: epochParams.Seed}
	want := make([][]bool, last+1)
	arts := make([]*store.Artifact, last+1)
	for ep := range want {
		want[ep] = epochBaseline(t, n, uint64(ep))
		arts[ep] = materializeEpochArtifact(t, n, uint64(ep))
		if got := arts[ep].Answers(); !slices.Equal(got, want[ep]) {
			t.Fatalf("epoch %d: artifact bits differ from the replica reference", ep)
		}
		if ep > 0 && slices.Equal(want[ep], want[ep-1]) {
			t.Fatalf("epochs %d and %d answer identically; a stale bit would be invisible", ep-1, ep)
		}
	}

	addrs, _, _ := epochFleet(t, n, 2)
	st := newTestStore(t, t.TempDir(), arts[0])
	gw, err := New(Options{Replicas: addrs, Seed: epochParams.Seed, HedgeDelay: -1, Store: st})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	if _, err := gw.WarmAllFromStore(ctx); err != nil {
		t.Fatalf("WarmAllFromStore: %v", err)
	}
	front, err := cluster.NewQueryServer("127.0.0.1:0", gw)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer front.Close()

	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	var frames [last + 1]atomic.Int64 // answered frames per echoed epoch
	var wrong atomic.Int64
	clients := make([]*cluster.LCAClient, readers)
	for r := range clients {
		client, err := cluster.DialLCA(front.Addr(), 5*time.Second)
		if err != nil {
			t.Fatalf("DialLCA: %v", err)
		}
		defer client.Close()
		clients[r] = client
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	// stopReaders runs before the clients close, also when the roller
	// fails the test, so no reader reports after the test has ended.
	stopReaders := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stopReaders()
	for r, client := range clients {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			check := func(kind string, ep engine.EpochID, i int, got bool) {
				if int(ep) > last {
					t.Errorf("%s frame echoed epoch %d, never sealed", kind, ep)
				} else if got != want[ep][i] {
					if wrong.Add(1) <= 5 {
						t.Errorf("%s item %d = %v at echoed epoch %d, want %v", kind, i, got, ep, want[ep][i])
					}
				}
			}
			for k := r; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				var ep engine.EpochID
				if k%2 == 0 {
					got, e, err := client.InSolutionBatchEpoch(ctx, engine.EpochCurrent, items)
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					for i := range items {
						check("batch", e, i, got[i])
					}
					ep = e
				} else {
					i := k % n
					got, e, err := client.InSolutionEpoch(ctx, engine.EpochCurrent, i)
					if err != nil {
						t.Errorf("point: %v", err)
						return
					}
					check("point", e, i, got)
					ep = e
				}
				if int(ep) <= last {
					frames[ep].Add(1)
				}
			}
		}(r)
	}

	// waitFrames lets the readers answer framesPerPhase more frames at
	// epoch ep before the roller moves on.
	waitFrames := func(ep engine.EpochID) {
		target := frames[ep].Load() + framesPerPhase
		deadline := time.Now().Add(10 * time.Second)
		for frames[ep].Load() < target {
			if time.Now().After(deadline) {
				t.Fatalf("readers answered %d frames at epoch %d, want %d", frames[ep].Load(), ep, target)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFrames(0)
	for ep := engine.EpochID(1); ep <= last; ep++ {
		putFirst := ep%2 == 1
		if putFirst {
			if err := st.Put(ctx, arts[ep]); err != nil {
				t.Fatalf("Put(%d): %v", ep, err)
			}
		}
		if err := gw.SetTenantEpoch(id, ep); err != nil {
			t.Fatalf("SetTenantEpoch(%d): %v", ep, err)
		}
		// The roll installs a stored artifact; without one the previous
		// epoch's stays installed while frames of ep are served.
		installed := ep - 1
		if putFirst {
			installed = ep
		}
		if a := gw.def.art.Load(); a == nil || a.Epoch != uint64(installed) {
			t.Fatalf("after the roll to %d: installed artifact is not epoch %d's", ep, installed)
		}
		if !putFirst {
			waitFrames(ep)
			if err := st.Put(ctx, arts[ep]); err != nil {
				t.Fatalf("Put(%d): %v", ep, err)
			}
		}
		waitFrames(ep)
	}
	stopReaders()
	if m := gw.Metrics(); m.StoreServes == 0 || m.Attempts == 0 {
		t.Errorf("StoreServes = %d, Attempts = %d: want both tiers exercised", m.StoreServes, m.Attempts)
	}
}

// TestEpochLatePutInstallsArtifact pins the store's Put hook: an
// epoch's artifact Put after the roll is installed at once, so even
// when the answer cache already holds every item asked for, the next
// frame is read from the artifact, not from replica-filled entries.
func TestEpochLatePutInstallsArtifact(t *testing.T) {
	const n = 64
	ctx := context.Background()
	addrs, _, tables := epochFleet(t, n, 1)
	st := newTestStore(t, t.TempDir())
	gw, err := New(Options{Replicas: addrs, Seed: epochParams.Seed, HedgeDelay: -1, Store: st})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	// Epoch 1 has no artifact yet: the replicas answer and fill the cache.
	sealEpoch(t, gw, tables, 1)
	want := epochBaseline(t, n, 1)
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	for pass := 0; pass < 2; pass++ {
		got, err := gw.InSolutionBatch(ctx, items)
		if err != nil {
			t.Fatalf("batch before the Put: %v", err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("batch before the Put: answers differ from the epoch-1 reference")
		}
	}
	if m := gw.Metrics(); m.CacheHits != n || m.StoreServes != 0 {
		t.Fatalf("before the Put: CacheHits = %d, StoreServes = %d, want %d and 0", m.CacheHits, m.StoreServes, n)
	}

	if err := st.Put(ctx, materializeEpochArtifact(t, n, 1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	before := gw.Metrics()
	got, err := gw.InSolutionBatch(ctx, items)
	if err != nil {
		t.Fatalf("batch after the Put: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("batch after the Put: answers differ from the epoch-1 reference")
	}
	after := gw.Metrics()
	if serves, hits := after.StoreServes-before.StoreServes, after.CacheHits-before.CacheHits; serves != n || hits != 0 {
		t.Errorf("batch after the Put: %d store serves and %d cache hits, want %d and 0", serves, hits, n)
	}
}

// BenchmarkGatewayEpochPinnedCachedHit measures the epoch-pinned
// cached-hit path — the steady state of a pinned consumer after
// rollover. The pin adds one field to the cache key and nothing else;
// the budget (ALLOC_BUDGET.json) holds it at 0 allocs/op, same as the
// unpinned hit path.
func BenchmarkGatewayEpochPinnedCachedHit(b *testing.B) {
	const n = 200
	addrs, _, _ := epochFleet(b, n, 1)
	ctx := context.Background()
	gw, err := New(Options{Replicas: addrs, Seed: epochParams.Seed, HedgeDelay: -1})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer gw.Close()
	const ep = 1
	for i := 0; i < n; i++ { // warm every pinned key
		if _, err := gw.InSolutionEpoch(ctx, ep, i); err != nil {
			b.Fatalf("warm InSolutionEpoch: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gw.InSolutionEpoch(ctx, ep, i%n); err != nil {
			b.Fatalf("InSolutionEpoch: %v", err)
		}
	}
}
