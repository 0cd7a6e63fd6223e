package gateway

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/store"
)

// ringVnodes is the virtual-node count per peer. 64 points per peer
// keep the keyspace split within a few percent of even for small
// fleets while the ring stays tiny (a few KB).
const ringVnodes = 64

// fnv1a64 hashes b with FNV-1a. The ring's placement is a pure
// function of the peer address list and the key bytes, so every
// gateway configured with the same -peers set computes the same owner
// for every key — agreement without coordination, the
// consistent-hashing analogue of the shared-seed argument.
func fnv1a64(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// ringPoint is one virtual node: a hash position owned by a peer.
type ringPoint struct {
	hash uint64
	addr string
}

// peerRing consistent-hashes the (instance, seed, item) keyspace
// across gateway peers. It is immutable after construction.
type peerRing struct {
	points []ringPoint
	self   string
}

// newPeerRing builds the ring over the given peer addresses (self
// included). Addresses are deduplicated and sorted before placement,
// so the ring is identical regardless of flag order.
func newPeerRing(self string, peers []string) *peerRing {
	seen := map[string]bool{self: true}
	all := []string{self}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		all = append(all, p)
	}
	sort.Strings(all)
	r := &peerRing{self: self, points: make([]ringPoint, 0, len(all)*ringVnodes)}
	for _, addr := range all {
		for v := 0; v < ringVnodes; v++ {
			h := fnv1a64(append([]byte(addr), byte(v), byte(v>>8), byte(v>>16), byte(v>>24)))
			r.points = append(r.points, ringPoint{hash: h, addr: addr})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// owner returns the peer owning the (instance, seed, item) key: the
// first virtual node clockwise of the key's hash. Ownership is a
// function of the tenant and item only — never the epoch — so a
// tenant's keys stay with the same owners across churn and a sealed
// epoch's artifacts replicate to the same successor the epoch-0
// artifact did.
func (r *peerRing) owner(id engine.TenantID, item int) string {
	var key [24]byte
	put := func(off int, v uint64) {
		for k := 0; k < 8; k++ {
			key[off+k] = byte(v >> (8 * k))
		}
	}
	put(0, id.Instance)
	put(8, id.Seed)
	put(16, uint64(item))
	h := fnv1a64(key[:])
	// Binary search for the first point at or after h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].addr
}

// successor returns the first peer other than self clockwise of the
// tenant's ring position — the natural replica target for tenant id's
// artifacts. Empty when the ring has no other peer. Every gateway
// computes the same successor for a tenant (the ring is a pure
// function of the address set), so proactive replication needs no
// placement coordination.
func (r *peerRing) successor(id engine.TenantID) string {
	var key [16]byte
	for k := 0; k < 8; k++ {
		key[k] = byte(id.Instance >> (8 * k))
		key[8+k] = byte(id.Seed >> (8 * k))
	}
	h := fnv1a64(key[:])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for k := 0; k < len(r.points); k++ {
		p := r.points[(i+k)%len(r.points)]
		if p.addr != r.self {
			return p.addr
		}
	}
	return ""
}

// peerFlight is one in-progress artifact fetch that concurrent misses
// for the same tenant join.
type peerFlight struct {
	done chan struct{}
	err  error
}

// peerTier is the gateway's inter-gateway artifact-fill layer: on a
// store miss it asks the key's owning peer for the whole tenant
// artifact over MsgStoreFetch, verifies it, and backfills the local
// store — after which every query for that tenant serves locally.
// Shipping whole artifacts (not individual bits) is the right
// granularity because answers are immutable: one transfer converts a
// remote tenant into a local one permanently.
type peerTier struct {
	g       *Gateway
	ring    *peerRing
	timeout time.Duration

	mu      sync.Mutex
	clients map[string]*cluster.LCAClient
	flights map[engine.VersionedTenant]*peerFlight
	// failedAt records the last failed fetch per (tenant, epoch) so
	// misses do not hammer a dead peer on every query; retry after
	// peerRetry. Keyed by epoch because a peer can hold epoch e's
	// artifact while e+1 is still materializing — one epoch failing to
	// fetch says nothing about the others.
	failedAt map[engine.VersionedTenant]time.Time
}

// peerRetry is the dwell time before re-attempting a failed peer fetch
// for the same tenant.
const peerRetry = 5 * time.Second

// newPeerTier builds the peer tier; self is this gateway's advertised
// address in the ring.
func newPeerTier(g *Gateway, self string, peers []string, timeout time.Duration) *peerTier {
	if timeout <= 0 {
		timeout = cluster.DefaultTimeout
	}
	return &peerTier{
		g:        g,
		ring:     newPeerRing(self, peers),
		timeout:  timeout,
		clients:  make(map[string]*cluster.LCAClient),
		flights:  make(map[engine.VersionedTenant]*peerFlight),
		failedAt: make(map[engine.VersionedTenant]time.Time),
	}
}

// client returns a live connection to peer addr, dialing or re-dialing
// as needed. Peer connections are cold-path (one artifact per tenant
// ever crosses them), so a single serialized connection per peer is
// plenty.
//
//lint:coldpath peer connections carry one artifact per (tenant, residency), not query traffic
func (p *peerTier) client(ctx context.Context, addr string) (*cluster.LCAClient, error) {
	p.mu.Lock()
	c := p.clients[addr]
	if c != nil && !c.Broken() {
		p.mu.Unlock()
		return c, nil
	}
	delete(p.clients, addr)
	p.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
	fresh, err := cluster.DialLCAContext(ctx, addr, p.timeout)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if existing := p.clients[addr]; existing != nil && !existing.Broken() {
		// A concurrent fill dialed first; keep theirs.
		p.mu.Unlock()
		_ = fresh.Close()
		return existing, nil
	}
	p.clients[addr] = fresh
	p.mu.Unlock()
	return fresh, nil
}

// fill resolves a store miss through the owning peer: fetch epoch
// vt.Epoch of tenant vt.Tenant's whole artifact, verify, backfill the
// local store, and answer item i from it. ok reports whether the peer
// path produced an answer; on false the caller falls back to replica
// fetch. Keys this gateway itself owns never fetch (the ring made us
// the authority — peers come to us), so fill is a no-op for them.
//
//lint:coldpath one whole-artifact transfer per (tenant, epoch, peer) residency; every later query is a local bit probe
func (p *peerTier) fill(ctx context.Context, vt engine.VersionedTenant, item int) (in, ok bool) {
	owner := p.ring.owner(vt.Tenant, item)
	if owner == p.ring.self {
		return false, false
	}
	p.mu.Lock()
	if t, failed := p.failedAt[vt]; failed && time.Since(t) < peerRetry {
		p.mu.Unlock()
		return false, false
	}
	if fl, inFlight := p.flights[vt]; inFlight {
		p.mu.Unlock()
		select {
		case <-fl.done:
			if fl.err != nil {
				return false, false
			}
			return p.lookupLocal(ctx, vt, item)
		case <-ctx.Done():
			return false, false
		}
	}
	fl := &peerFlight{done: make(chan struct{})}
	p.flights[vt] = fl
	p.mu.Unlock()

	fl.err = p.fetchAndBackfill(ctx, owner, vt)
	p.mu.Lock()
	delete(p.flights, vt)
	if fl.err != nil {
		p.failedAt[vt] = time.Now()
	} else {
		delete(p.failedAt, vt)
	}
	p.mu.Unlock()
	close(fl.done)
	if fl.err != nil {
		p.g.counters.peerFillErrors.Add(1)
		obs.AddWarnEvent(ctx, "gateway.peer_fill_error",
			obs.String("tenant", vt.String()), obs.String("peer", owner),
			obs.String("error", fl.err.Error()))
		return false, false
	}
	return p.lookupLocal(ctx, vt, item)
}

// fetchAndBackfill transfers one (tenant, epoch) artifact from peer
// addr and installs it in the local store. The artifact's own trailer
// checksum guards the transfer: corrupt bytes are rejected before
// touching disk, and the fetch is retried on the next miss.
func (p *peerTier) fetchAndBackfill(ctx context.Context, addr string, vt engine.VersionedTenant) error {
	c, err := p.client(ctx, addr)
	if err != nil {
		return fmt.Errorf("gateway: peer %s: %w", addr, err)
	}
	start := time.Now()
	data, err := c.FetchArtifact(ctx, vt.Tenant, vt.Epoch)
	if err != nil {
		return fmt.Errorf("gateway: peer %s: %w", addr, err)
	}
	a, err := p.g.opts.Store.PutBytes(ctx, data)
	if err != nil {
		return fmt.Errorf("gateway: backfill from %s: %w", addr, err)
	}
	p.g.counters.peerFills.Add(1)
	p.g.counters.backfills.Add(1)
	obs.AddEvent(ctx, "gateway.peer_fill",
		obs.String("tenant", vt.String()), obs.String("peer", addr),
		obs.Int("bytes", int64(a.Size())), obs.String("wall", time.Since(start).String()))
	return nil
}

// lookupLocal answers from the (just backfilled) local store.
func (p *peerTier) lookupLocal(ctx context.Context, vt engine.VersionedTenant, item int) (bool, bool) {
	in, ok, err := p.g.opts.Store.LookupEpoch(ctx, vt, item)
	if err != nil || !ok {
		return false, false
	}
	return in, true
}

// pushToSuccessor proactively replicates a freshly materialized
// artifact to the tenant's ring successor, so the successor can serve
// the epoch from its local store with zero fetch-on-miss — the warm
// path for failover: when this gateway dies, queries landing on the
// successor find the artifact already resident. Fired from the store's
// Put hook (Gateway.onPut); the transfer itself runs in a goroutine so
// Put never blocks on a peer. One hop only: the receiver installs via
// PutBytes, which never re-fires the hook, so a push cannot cascade
// around the ring.
//
//lint:coldpath one artifact transfer per local materialization, not query traffic
func (p *peerTier) pushToSuccessor(a *store.Artifact) {
	id := engine.TenantID{Instance: a.Instance, Seed: a.Seed}
	succ := p.ring.successor(id)
	if succ == "" {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
		defer cancel()
		c, err := p.client(ctx, succ)
		if err == nil {
			err = c.PushArtifact(ctx, a.Bytes())
		}
		if err != nil {
			p.g.counters.storePushErrors.Add(1)
			obs.AddWarnEvent(ctx, "gateway.store_push_error",
				obs.String("tenant", id.String()), obs.String("peer", succ),
				obs.String("error", err.Error()))
			return
		}
		p.g.counters.storePushes.Add(1)
	}()
}

// close releases the peer connections.
func (p *peerTier) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, c := range p.clients {
		_ = c.Close()
		delete(p.clients, addr)
	}
}

// artifactTier answers item i at epoch ep from the materialized
// tiers: the local artifact store first, then (on a store miss for a
// peer-owned key) the peer tier. ok=false falls the query through to
// the replica fleet — the tiers only ever short-circuit work, never
// change an answer, because an artifact bit and a replica answer are
// the same pure function C(I_e, r) evaluated in different places. A
// hit at the current epoch adopts that epoch's artifact, so the
// tenant's next frame reads the bitset directly: this is how a gateway
// that was never warmed and a peer backfill reach the fast path.
func (t *tenant) artifactTier(ctx context.Context, ep engine.EpochID, i int) (in, ok bool) {
	st := t.g.opts.Store
	if st == nil {
		return false, false
	}
	vt := engine.VersionedTenant{Tenant: t.id, Epoch: ep}
	in, ok, err := st.LookupEpoch(ctx, vt, i)
	if err != nil {
		// A corrupt or unreadable artifact must not take the query down:
		// replicas still answer. But it must be visible.
		obs.AddWarnEvent(ctx, "gateway.store_error",
			obs.String("tenant", t.label), obs.String("error", err.Error()))
		return false, false
	}
	if !ok && t.g.peerTier != nil {
		in, ok = t.g.peerTier.fill(ctx, vt, i)
	}
	if !ok {
		return false, false
	}
	t.g.counters.storeServes.Add(1)
	t.adopt(ctx, ep)
	return in, true
}

// ArtifactBytes implements cluster.ArtifactProvider: it serves this
// gateway's stored artifact of tenant id at epoch ep to fetching peers.
// Like the wire metrics scrape, the artifact endpoint is not API-key
// gated: it exposes derived solution bits (the same bits every query
// response carries), not instance data, and peers are
// cluster-internal.
func (g *Gateway) ArtifactBytes(ctx context.Context, id engine.TenantID, ep engine.EpochID) ([]byte, error) {
	st := g.opts.Store
	if st == nil {
		return nil, fmt.Errorf("gateway: no artifact store configured")
	}
	a, err := st.GetVersioned(ctx, engine.VersionedTenant{Tenant: id, Epoch: ep})
	if err != nil {
		return nil, err
	}
	g.counters.artifactsServed.Add(1)
	return a.Bytes(), nil
}

// AcceptArtifact implements cluster.ArtifactSink: it installs an
// artifact proactively pushed by a peer (MsgStorePush). Installation
// goes through PutBytes, which decodes and checksum-verifies the bytes
// and — critically — never fires the store's on-put hook, so accepting
// a push can never emit a further push: replication is exactly one
// hop, owner to successor.
func (g *Gateway) AcceptArtifact(ctx context.Context, data []byte) error {
	st := g.opts.Store
	if st == nil {
		return fmt.Errorf("gateway: no artifact store configured")
	}
	a, err := st.PutBytes(ctx, data)
	if err != nil {
		return err
	}
	g.counters.pushesAccepted.Add(1)
	obs.AddEvent(ctx, "gateway.store_push_accepted",
		obs.String("tenant", engine.TenantID{Instance: a.Instance, Seed: a.Seed}.String()),
		obs.Int("epoch", int64(a.Epoch)), obs.Int("bytes", int64(a.Size())))
	return nil
}

// WarmFromStore makes tenant id's current-epoch artifact the first
// tier its frames read: the artifact is opened (or found resident) and
// installed, so every item it covers is served from its bitset with
// zero replica traffic and no answer-cache entry. It returns the
// number of answers made servable, the artifact's item count.
// Combined with lcagateway -store, this is how a restarted gateway
// comes back warm without re-asking the fleet anything.
func (g *Gateway) WarmFromStore(ctx context.Context, id engine.TenantID) (int, error) {
	st := g.opts.Store
	if st == nil {
		return 0, fmt.Errorf("gateway: warm from store: no store configured")
	}
	t, ok := g.tenants[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", cluster.ErrUnknownTenant, id)
	}
	// Warm at the tenant's current epoch: unpinned traffic resolves to
	// it, so that is the artifact worth installing.
	a, err := st.GetVersioned(ctx, engine.VersionedTenant{Tenant: id, Epoch: t.currentEpoch()})
	if err != nil {
		return 0, fmt.Errorf("gateway: warm from store: %w", err)
	}
	t.install(a)
	g.counters.warmed.Add(int64(a.N))
	obs.AddEvent(ctx, "gateway.warm_from_store",
		obs.String("tenant", t.label), obs.Int("answers", int64(a.N)))
	return a.N, nil
}

// WarmAllFromStore warms every configured tenant that has an artifact
// of its current epoch in the local store, returning the total answers
// made servable. Tenants without one are skipped silently — absence is
// the normal cold state, not an error.
func (g *Gateway) WarmAllFromStore(ctx context.Context) (int, error) {
	total := 0
	for _, id := range g.Tenants() {
		if g.opts.Store == nil {
			continue
		}
		t := g.tenants[id]
		if !g.opts.Store.HasVersioned(engine.VersionedTenant{Tenant: id, Epoch: t.currentEpoch()}) {
			continue
		}
		n, err := g.WarmFromStore(ctx, id)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ensure the provider and sink seams stay implemented.
var (
	_ cluster.ArtifactProvider = (*Gateway)(nil)
	_ cluster.ArtifactSink     = (*Gateway)(nil)
)
