package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

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

// nonOwnerSelf returns the k-th (from 0) candidate self address that
// the ring over it and peers places as a non-owner of tenant id, so a
// gateway under test with that address pulls id's artifact from one
// of peers.
func nonOwnerSelf(t testing.TB, id engine.TenantID, k int, peers ...string) string {
	t.Helper()
	for c := 0; c < 256; c++ {
		self := fmt.Sprintf("gw-under-test-%d", c)
		if newPeerRing(self, peers).owner(id) == self {
			continue
		}
		if k == 0 {
			return self
		}
		k--
	}
	t.Fatal("the ring placed almost every candidate self address as the tenant's owner")
	return ""
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
		SelfAddr:   nonOwnerSelf(t, engine.TenantID{Instance: 0, Seed: testParams.Seed}, 0, peerSrv.Addr()),
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
	if pm.PeerFills != 1 {
		t.Errorf("peer path: PeerFills = %d, want 1 (one whole-artifact transfer)", pm.PeerFills)
	}
	if pm.StoreServes == 0 {
		t.Errorf("peer path: StoreServes = 0, want > 0")
	}
	if served := gwStore.Metrics().ArtifactsServed; served != 1 {
		t.Errorf("owning peer: ArtifactsServed = %d, want 1", served)
	}
}

// TestPeerFillOwnedKeysZeroReplicaTraffic pins the peer tier's traffic
// contract: a query for a peer-owned tenant is resolved entirely
// through the peer's artifact endpoint — ZERO replica RPC attempts —
// and once the artifact is backfilled, every further query for that
// tenant is a local bit probe.
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

	// Filling gateway: empty store, the owner as its peer, at an
	// address the ring places as a non-owner of the tenant.
	self := nonOwnerSelf(t, id, 0, ownerSrv.Addr())
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

	// The ring assigns the whole tenant to the owner, so any item's
	// first query must travel the peer path, never the replicas.
	const owned = n / 2

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
	if m.PeerFills != 1 || m.StoreServes != 1 {
		t.Errorf("owned-key query: PeerFills=%d StoreServes=%d, want 1/1",
			m.PeerFills, m.StoreServes)
	}

	// The backfilled artifact now covers the whole tenant: every item
	// serves locally with still zero replica traffic.
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

// TestPeerFillAsksTenantOwner is a three-gateway ring: the gateway
// under test has an empty store, one peer holds the tenant's artifact
// and owns the tenant, and the other peer is on the wire with an empty
// store. Every first query must go to the holder: one whole-artifact
// transfer, no failed fill, no replica attempt. A ring keyed per item
// sends some first fills to the empty peer, whose failure then blocks
// every fill for the dwell and sends the queries to the replicas. The
// run repeats for three self addresses, three placements on the ring.
func TestPeerFillAsksTenantOwner(t *testing.T) {
	const n, placements = 64, 3
	addrs, _, baseline := testFleet(t, n, 1)
	want := baselineAnswers(t, baseline, n)
	ctx := context.Background()
	id := engine.TenantID{Instance: 0, Seed: testParams.Seed}

	// Two peers on the wire, both with empty stores for now.
	stores := map[string]*store.Store{}
	gws := map[string]*Gateway{}
	var peers []string
	for range 2 {
		st := newTestStore(t, t.TempDir())
		gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1, Store: st})
		if err != nil {
			t.Fatalf("New(peer): %v", err)
		}
		t.Cleanup(func() { gw.Close() })
		srv, err := cluster.NewQueryServer("127.0.0.1:0", gw)
		if err != nil {
			t.Fatalf("NewQueryServer(peer): %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		stores[srv.Addr()], gws[srv.Addr()] = st, gw
		peers = append(peers, srv.Addr())
	}

	// The ring names one owner of the tenant whatever the self address
	// of a non-owner (the two peers' points do not move); that peer
	// gets the artifact, the other stays empty.
	holder := newPeerRing(nonOwnerSelf(t, id, 0, peers...), peers).owner(id)
	if err := stores[holder].Put(ctx, materializeFleetArtifact(t, n)); err != nil {
		t.Fatalf("Put(holder): %v", err)
	}

	for k := range placements {
		self := nonOwnerSelf(t, id, k, peers...)
		if owner := newPeerRing(self, peers).owner(id); owner != holder {
			t.Fatalf("self %s: ring owner %s, want the holder %s", self, owner, holder)
		}
		gw, err := New(Options{
			Replicas:   addrs,
			Seed:       testParams.Seed,
			HedgeDelay: -1,
			Store:      newTestStore(t, t.TempDir()),
			Peers:      peers,
			SelfAddr:   self,
		})
		if err != nil {
			t.Fatalf("New(under test): %v", err)
		}
		t.Cleanup(func() { gw.Close() })
		for i := 0; i < n; i++ {
			got, err := gw.InSolution(ctx, i)
			if err != nil {
				t.Fatalf("self %s: InSolution(%d): %v", self, i, err)
			}
			if got != want[i] {
				t.Errorf("self %s: item %d = %v, want %v", self, i, got, want[i])
			}
		}
		if m := gw.Metrics(); m.Attempts != 0 || m.PeerFills != 1 || m.PeerFillErrors != 0 {
			t.Errorf("self %s: Attempts/PeerFills/PeerFillErrors = %d/%d/%d, want 0/1/0",
				self, m.Attempts, m.PeerFills, m.PeerFillErrors)
		}
	}
	for addr, peer := range gws {
		wantServed := int64(0)
		if addr == holder {
			wantServed = placements
		}
		if got := peer.Metrics().ArtifactsServed; got != wantServed {
			t.Errorf("peer %s (holder %v): ArtifactsServed = %d, want %d", addr, addr == holder, got, wantServed)
		}
	}
}

// TestStoreFetchRequiresGrantedKey holds a MsgStoreFetch to the keys
// and grants of a read: the artifact carries every answer of the
// tenant, so a keyed gateway serves it only to a key granted the
// tenant, and no gateway serves it for a tenant it does not serve.
// Gateways sharing the key file fill from each other; a fetcher
// without keys is refused and answers from the replicas.
func TestStoreFetchRequiresGrantedKey(t *testing.T) {
	const n = 48
	addrs, _, baseline := testFleet(t, n, 1)
	want := baselineAnswers(t, baseline, n)
	ctx := context.Background()
	id := engine.TenantID{Instance: 0, Seed: testParams.Seed}
	artifact := materializeFleetArtifact(t, n)

	// One key file for the ring; the first key grants another tenant
	// only, so the fetching key is the second one.
	auth := NewAuthorizer()
	auth.Grant("other-secret", engine.TenantID{Instance: 9, Seed: 9})
	auth.Grant("ring-secret", id)

	gwOwner, err := New(Options{
		Replicas:   addrs,
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		Auth:       auth,
		Store:      newTestStore(t, t.TempDir(), artifact),
	})
	if err != nil {
		t.Fatalf("New(owner): %v", err)
	}
	defer gwOwner.Close()
	srv, err := cluster.NewQueryServer("127.0.0.1:0", gwOwner)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer srv.Close()

	c, err := cluster.DialLCA(srv.Addr(), time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer c.Close()
	for _, key := range [][]byte{nil, []byte("unknown-secret"), []byte("other-secret")} {
		if _, err := c.FetchArtifact(ctx, id, 0, key); !errors.Is(err, cluster.ErrRemote) {
			t.Errorf("FetchArtifact(key %q) = %v, want ErrRemote", key, err)
		}
	}
	if m := gwOwner.Metrics(); m.AuthRejects != 3 || m.ArtifactsServed != 0 {
		t.Errorf("after refused fetches: AuthRejects = %d ArtifactsServed = %d, want 3 and 0", m.AuthRejects, m.ArtifactsServed)
	}
	for _, ep := range []engine.EpochID{0, engine.EpochCurrent} {
		data, err := c.FetchArtifact(ctx, id, ep, []byte("ring-secret"))
		if err != nil {
			t.Fatalf("FetchArtifact(granted key, epoch %d): %v", uint64(ep), err)
		}
		if !bytes.Equal(data, artifact.Bytes()) {
			t.Errorf("granted fetch at epoch %d: %d bytes differ from the stored artifact", uint64(ep), len(data))
		}
	}

	fetcher := func(a *Authorizer) *Gateway {
		t.Helper()
		gw, err := New(Options{
			Replicas:   addrs,
			Seed:       testParams.Seed,
			HedgeDelay: -1,
			Auth:       a,
			Store:      newTestStore(t, t.TempDir()),
			Peers:      []string{srv.Addr()},
			SelfAddr:   nonOwnerSelf(t, id, 0, srv.Addr()),
		})
		if err != nil {
			t.Fatalf("New(fetcher): %v", err)
		}
		t.Cleanup(func() { gw.Close() })
		for i := 0; i < n; i++ {
			got, err := gw.InSolution(ctx, i)
			if err != nil {
				t.Fatalf("InSolution(%d): %v", i, err)
			}
			if got != want[i] {
				t.Errorf("item %d = %v, want %v", i, got, want[i])
			}
		}
		return gw
	}
	if m := fetcher(auth).Metrics(); m.PeerFills != 1 || m.PeerFillErrors != 0 || m.Attempts != 0 {
		t.Errorf("keyed fetcher: PeerFills/PeerFillErrors/Attempts = %d/%d/%d, want 1/0/0", m.PeerFills, m.PeerFillErrors, m.Attempts)
	}
	if m := fetcher(nil).Metrics(); m.PeerFills != 0 || m.PeerFillErrors != 1 || m.Attempts == 0 {
		t.Errorf("unkeyed fetcher: PeerFills/PeerFillErrors/Attempts = %d/%d/%d, want 0/1/>0", m.PeerFills, m.PeerFillErrors, m.Attempts)
	}
	if m := gwOwner.Metrics(); m.AuthRejects != 4 || m.ArtifactsServed != 3 {
		t.Errorf("owner: AuthRejects = %d ArtifactsServed = %d, want 4 and 3", m.AuthRejects, m.ArtifactsServed)
	}

	// A peer serves only the artifacts of tenants it serves: a gateway
	// without keys whose store holds the artifact of a tenant it does
	// not serve refuses the fetch.
	stranger, err := New(Options{
		Replicas:   addrs,
		Instance:   9,
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		Store:      newTestStore(t, t.TempDir(), artifact),
	})
	if err != nil {
		t.Fatalf("New(stranger): %v", err)
	}
	defer stranger.Close()
	strangerSrv, err := cluster.NewQueryServer("127.0.0.1:0", stranger)
	if err != nil {
		t.Fatalf("NewQueryServer(stranger): %v", err)
	}
	defer strangerSrv.Close()
	sc, err := cluster.DialLCA(strangerSrv.Addr(), time.Second)
	if err != nil {
		t.Fatalf("DialLCA(stranger): %v", err)
	}
	defer sc.Close()
	if _, err := sc.FetchArtifact(ctx, id, 0, nil); !errors.Is(err, cluster.ErrRemote) {
		t.Errorf("FetchArtifact(unserved tenant) = %v, want ErrRemote", err)
	}
	if served := stranger.Metrics().ArtifactsServed; served != 0 {
		t.Errorf("stranger: ArtifactsServed = %d, want 0", served)
	}
}

// TestCloseCancelsBackgroundPull pins that a roll's background pull
// belongs to the gateway: with the tenant's owner a black hole that
// accepts connections and never answers, Close returns long before
// the RPC timeout and leaves no pull running.
func TestCloseCancelsBackgroundPull(t *testing.T) {
	addrs, _, _ := testFleet(t, 16, 1)
	hole := newBlackHole(t)
	id := engine.TenantID{Instance: 0, Seed: testParams.Seed}
	gw, err := New(Options{
		Replicas:   addrs,
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		RPCTimeout: 10 * time.Second,
		Store:      newTestStore(t, t.TempDir()),
		Peers:      []string{hole},
		SelfAddr:   nonOwnerSelf(t, id, 0, hole),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := gw.SetTenantEpoch(id, 1); err != nil {
		t.Fatalf("SetTenantEpoch: %v", err)
	}
	// Wait for the pull to hold a connection to the owner, so Close
	// meets it blocked on the response.
	p := gw.peerTier
	for deadline := time.Now().Add(5 * time.Second); ; {
		p.mu.Lock()
		dialed := len(p.clients) == 1
		p.mu.Unlock()
		if dialed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the roll's pull never dialed the owner")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := gw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close took %v with a pull blocked on the owner, want well under the 10s RPC timeout", d)
	}
	if m := gw.Metrics(); m.PeerFills != 0 {
		t.Errorf("PeerFills = %d after a pull from a black hole, want 0", m.PeerFills)
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
