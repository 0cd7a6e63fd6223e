package gateway

import (
	"context"
	"testing"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/oracle"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

// materializeFleetArtifact produces the artifact for the instance
// testFleet serves — same workload generator, same parameters — so its
// bits are the fleet's bits in durable form.
func materializeFleetArtifact(t testing.TB, n int) *store.Artifact {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: 17})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	lca, err := core.NewLCAKP(acc, testParams)
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	ctx := context.Background()
	rule, err := store.MaterializeRule(ctx, lca)
	if err != nil {
		t.Fatalf("MaterializeRule: %v", err)
	}
	a, err := store.MaterializeEpoch(ctx, acc, rule, 0, testParams.Seed, 0)
	if err != nil {
		t.Fatalf("MaterializeEpoch: %v", err)
	}
	return a
}

// newTestStore builds a store in a fresh temp dir holding the given
// artifacts.
func newTestStore(t testing.TB, dir string, artifacts ...*store.Artifact) *store.Store {
	t.Helper()
	st, err := store.New(dir, 0)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	for _, a := range artifacts {
		if err := st.Put(context.Background(), a); err != nil {
			t.Fatalf("store.Put: %v", err)
		}
	}
	return st
}

// baselineAnswers evaluates the reference LCA over every item.
func baselineAnswers(t testing.TB, baseline *core.LCAKP, n int) []bool {
	t.Helper()
	want := make([]bool, n)
	for i := range want {
		in, err := baseline.Query(context.Background(), i)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", i, err)
		}
		want[i] = in
	}
	return want
}

// TestStoreE2EBitIdentityAcrossServePaths is the acceptance run for
// the materialized artifact tier: the SAME (instance, seed) is served
// through four different mechanisms — replica fetch, answer-cache hit,
// local artifact bit probe, and peer-filled artifact — and every path
// must produce bit-identical answers. This is Definition 2.2 made
// operational: C(I, r) is a pure function, so where a bit is read from
// cannot change which bit it is.
func TestStoreE2EBitIdentityAcrossServePaths(t *testing.T) {
	const n = 96
	addrs, _, baseline := testFleet(t, n, 2)
	want := baselineAnswers(t, baseline, n)
	ctx := context.Background()
	artifact := materializeFleetArtifact(t, n)

	items := make([]int, n)
	for i := range items {
		items[i] = i
	}

	// Paths 1 and 2: replica fetch, then cache hit, on a store-less
	// gateway.
	gwFleet, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New(fleet): %v", err)
	}
	defer gwFleet.Close()
	for sweep, path := range []string{"replica", "cache"} {
		for i := 0; i < n; i++ {
			got, err := gwFleet.InSolution(ctx, i)
			if err != nil {
				t.Fatalf("%s InSolution(%d): %v", path, i, err)
			}
			if got != want[i] {
				t.Errorf("%s path: item %d = %v, want %v", path, i, got, want[i])
			}
		}
		if m := gwFleet.Metrics(); sweep == 1 && m.CacheHits < int64(n) {
			t.Errorf("cache sweep: CacheHits = %d, want >= %d", m.CacheHits, n)
		}
	}

	// Path 3: local artifact. A gateway holding the materialized
	// artifact must answer every query — point and batch — without a
	// single replica RPC.
	gwStore, err := New(Options{
		Replicas:   addrs,
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		Store:      newTestStore(t, t.TempDir(), artifact),
	})
	if err != nil {
		t.Fatalf("New(store): %v", err)
	}
	defer gwStore.Close()
	batch, err := gwStore.InSolutionBatch(ctx, items)
	if err != nil {
		t.Fatalf("store-path batch: %v", err)
	}
	for i, got := range batch {
		if got != want[i] {
			t.Errorf("artifact path: item %d = %v, want %v", i, got, want[i])
		}
	}
	m := gwStore.Metrics()
	if m.Attempts != 0 {
		t.Errorf("artifact path: %d replica attempts, want 0", m.Attempts)
	}
	if m.StoreServes != int64(n) {
		t.Errorf("artifact path: StoreServes = %d, want %d", m.StoreServes, n)
	}

	// Path 4: peer-filled artifact. A store-backed gateway with an
	// empty store fetches the whole artifact from the owning peer on
	// first miss, backfills, and serves the same bits locally.
	peerSrv, err := cluster.NewQueryServer("127.0.0.1:0", gwStore)
	if err != nil {
		t.Fatalf("NewQueryServer(peer): %v", err)
	}
	defer peerSrv.Close()
	gwPeer, err := New(Options{
		Replicas:   addrs,
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		Store:      newTestStore(t, t.TempDir()),
		Peers:      []string{peerSrv.Addr()},
		SelfAddr:   "gw-peer-under-test",
	})
	if err != nil {
		t.Fatalf("New(peer): %v", err)
	}
	defer gwPeer.Close()
	for i := 0; i < n; i++ {
		got, err := gwPeer.InSolution(ctx, i)
		if err != nil {
			t.Fatalf("peer InSolution(%d): %v", i, err)
		}
		if got != want[i] {
			t.Errorf("peer path: item %d = %v, want %v", i, got, want[i])
		}
	}
	pm := gwPeer.Metrics()
	if pm.PeerFills != 1 || pm.Backfills != 1 {
		t.Errorf("peer path: PeerFills = %d Backfills = %d, want 1 and 1 (one whole-artifact transfer)", pm.PeerFills, pm.Backfills)
	}
	if pm.StoreServes == 0 {
		t.Errorf("peer path: StoreServes = 0, want > 0")
	}
	if served := gwStore.Metrics().ArtifactsServed; served != 1 {
		t.Errorf("owning peer: ArtifactsServed = %d, want 1", served)
	}
}

// TestPeerFillOwnedKeysZeroReplicaTraffic pins the peer tier's traffic
// contract: a query for a peer-owned key is resolved entirely through
// the peer's artifact endpoint — ZERO replica RPC attempts — and once
// the artifact is backfilled, every further query for that tenant
// (self-owned keys included) is a local bit probe.
func TestPeerFillOwnedKeysZeroReplicaTraffic(t *testing.T) {
	const n = 64
	addrs, _, baseline := testFleet(t, n, 1)
	want := baselineAnswers(t, baseline, n)
	ctx := context.Background()
	artifact := materializeFleetArtifact(t, n)
	id := engine.TenantID{Instance: 0, Seed: testParams.Seed}

	// Owning gateway: holds the artifact, mounted on the wire.
	gwOwner, err := New(Options{
		Replicas:   addrs,
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		Store:      newTestStore(t, t.TempDir(), artifact),
	})
	if err != nil {
		t.Fatalf("New(owner): %v", err)
	}
	defer gwOwner.Close()
	ownerSrv, err := cluster.NewQueryServer("127.0.0.1:0", gwOwner)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer ownerSrv.Close()

	// Filling gateway: empty store, the owner as its peer.
	const self = "filling-gateway"
	gwFill, err := New(Options{
		Replicas:   addrs,
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		Store:      newTestStore(t, t.TempDir()),
		Peers:      []string{ownerSrv.Addr()},
		SelfAddr:   self,
	})
	if err != nil {
		t.Fatalf("New(fill): %v", err)
	}
	defer gwFill.Close()

	// Pick an item the ring assigns to the owner (not to self): its
	// first query must travel the peer path, never the replicas.
	ring := newPeerRing(self, []string{ownerSrv.Addr()})
	owned := -1
	for i := 0; i < n; i++ {
		if ring.owner(id, i) == ownerSrv.Addr() {
			owned = i
			break
		}
	}
	if owned < 0 {
		t.Fatal("ring assigned every item to self; vnode placement broken")
	}

	got, err := gwFill.InSolution(ctx, owned)
	if err != nil {
		t.Fatalf("InSolution(owned %d): %v", owned, err)
	}
	if got != want[owned] {
		t.Errorf("owned key %d = %v, want %v", owned, got, want[owned])
	}
	m := gwFill.Metrics()
	if m.Attempts != 0 {
		t.Fatalf("owned-key query made %d replica attempts, want 0", m.Attempts)
	}
	if m.PeerFills != 1 || m.Backfills != 1 || m.StoreServes != 1 {
		t.Errorf("owned-key query: PeerFills=%d Backfills=%d StoreServes=%d, want 1/1/1",
			m.PeerFills, m.Backfills, m.StoreServes)
	}

	// The backfilled artifact now covers the whole tenant: every item —
	// whoever owns it — serves locally with still zero replica traffic.
	for i := 0; i < n; i++ {
		got, err := gwFill.InSolution(ctx, i)
		if err != nil {
			t.Fatalf("InSolution(%d): %v", i, err)
		}
		if got != want[i] {
			t.Errorf("post-fill item %d = %v, want %v", i, got, want[i])
		}
	}
	m = gwFill.Metrics()
	if m.Attempts != 0 {
		t.Errorf("full sweep after backfill made %d replica attempts, want 0", m.Attempts)
	}
	if m.PeerFills != 1 {
		t.Errorf("full sweep re-fetched the artifact: PeerFills = %d, want 1", m.PeerFills)
	}
	// The local store persisted the fill: the artifact file exists and
	// matches the original bytes.
	a, err := store.ReadFile(gwFill.opts.Store.PathVersioned(engine.VersionedTenant{Tenant: id}))
	if err != nil {
		t.Fatalf("backfilled artifact unreadable: %v", err)
	}
	if a.Checksum() != artifact.Checksum() {
		t.Errorf("backfilled artifact checksum %x != original %x", a.Checksum(), artifact.Checksum())
	}
}

// TestGatewayRestartServesWarmFromStore is the restart acceptance run:
// a gateway process dies, a new one mounts the same artifact
// directory, installs the artifacts, and serves its whole key space
// from them — every answer exact, zero replica traffic, no cache
// entry. The artifact is the durable form of every answer.
func TestGatewayRestartServesWarmFromStore(t *testing.T) {
	const n = 80
	addrs, _, baseline := testFleet(t, n, 1)
	want := baselineAnswers(t, baseline, n)
	ctx := context.Background()
	dir := t.TempDir()

	// First life: a store-backed gateway persists the artifact.
	first := newTestStore(t, dir, materializeFleetArtifact(t, n))
	gw1, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1, Store: first})
	if err != nil {
		t.Fatalf("New(first): %v", err)
	}
	if got, err := gw1.InSolution(ctx, 0); err != nil || got != want[0] {
		t.Fatalf("first-life query = (%v, %v), want (%v, nil)", got, err, want[0])
	}
	gw1.Close()
	first.Close()

	// Second life: fresh process state, same directory.
	second := newTestStore(t, dir)
	gw2, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1, Store: second})
	if err != nil {
		t.Fatalf("New(second): %v", err)
	}
	defer gw2.Close()
	warmed, err := gw2.WarmAllFromStore(ctx)
	if err != nil {
		t.Fatalf("WarmAllFromStore: %v", err)
	}
	if warmed != n {
		t.Errorf("WarmAllFromStore warmed %d entries, want %d", warmed, n)
	}
	for i := 0; i < n; i++ {
		got, err := gw2.InSolution(ctx, i)
		if err != nil {
			t.Fatalf("InSolution(%d): %v", i, err)
		}
		if got != want[i] {
			t.Errorf("restarted gateway: item %d = %v, want %v", i, got, want[i])
		}
	}
	m := gw2.Metrics()
	if m.Attempts != 0 {
		t.Errorf("restarted gateway made %d replica attempts, want 0", m.Attempts)
	}
	if m.StoreServes != int64(n) || m.CacheHits != 0 {
		t.Errorf("restarted gateway: StoreServes = %d, CacheHits = %d, want %d and 0 (every query served by the installed artifact)",
			m.StoreServes, m.CacheHits, n)
	}
	if m.Warmed != int64(n) {
		t.Errorf("restarted gateway: Warmed = %d, want %d", m.Warmed, n)
	}
}
