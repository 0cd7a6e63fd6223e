package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
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

// peerRing consistent-hashes tenants across gateway peers. It is
// immutable after construction.
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

// owner returns the peer owning tenant id: the first virtual node
// clockwise of the tenant's hash. Ownership is a function of the
// tenant alone — not of the item, because the whole (tenant, epoch)
// artifact is what moves, and not of the epoch, so a tenant keeps its
// owner across churn.
func (r *peerRing) owner(id engine.TenantID) string {
	var key [16]byte
	for k := 0; k < 8; k++ {
		key[k] = byte(id.Instance >> (8 * k))
		key[8+k] = byte(id.Seed >> (8 * k))
	}
	h := fnv1a64(key[:])
	// Binary search for the first point at or after h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].addr
}

// peerFlight is one in-progress artifact pull that concurrent pulls
// of the same (tenant, epoch) join.
type peerFlight struct {
	done chan struct{}
	err  error
}

// peerTier is the gateway's inter-gateway artifact layer. Artifacts
// move one way: a gateway that does not own a tenant pulls the
// tenant's whole (tenant, epoch) artifact from the owner over
// MsgStoreFetch, verifies it and persists it in its local store —
// at boot, after an epoch roll, and on a store miss — after which
// every query for that epoch serves locally. Shipping whole artifacts
// (not individual bits) is the right granularity because answers are
// immutable: one transfer converts a remote tenant into a local one
// permanently.
type peerTier struct {
	g       *Gateway
	ring    *peerRing
	timeout time.Duration

	// ctx runs the background pulls of epoch rolls; close cancels it
	// and waits on wg for them.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	clients map[string]*cluster.LCAClient
	flights map[engine.VersionedTenant]*peerFlight
	// failedAt records the last failed pull per (tenant, epoch) so
	// misses do not hammer a dead peer on every query; retry after
	// peerRetry. Keyed by epoch because a peer can hold epoch e's
	// artifact while e+1 is still materializing — one epoch failing to
	// transfer says nothing about the others.
	failedAt map[engine.VersionedTenant]time.Time
}

// peerRetry is the dwell time before re-attempting a failed pull of
// the same (tenant, epoch).
const peerRetry = 5 * time.Second

// newPeerTier builds the peer tier; self is this gateway's advertised
// address in the ring.
func newPeerTier(g *Gateway, self string, peers []string, timeout time.Duration) *peerTier {
	if timeout <= 0 {
		timeout = cluster.DefaultTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &peerTier{
		g:        g,
		ring:     newPeerRing(self, peers),
		timeout:  timeout,
		ctx:      ctx,
		cancel:   cancel,
		clients:  make(map[string]*cluster.LCAClient),
		flights:  make(map[engine.VersionedTenant]*peerFlight),
		failedAt: make(map[engine.VersionedTenant]time.Time),
	}
}

// client returns a live connection to peer addr, dialing or re-dialing
// as needed. Peer connections are cold-path (one artifact per tenant
// and epoch crosses them), so a single serialized connection per peer
// is plenty.
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
	defer p.mu.Unlock()
	if p.closed {
		_ = fresh.Close()
		return nil, errPeerTierClosed
	}
	if existing := p.clients[addr]; existing != nil && !existing.Broken() {
		// A concurrent pull dialed first; keep theirs.
		_ = fresh.Close()
		return existing, nil
	}
	p.clients[addr] = fresh
	return fresh, nil
}

// errPeerTierClosed fails a pull that outlived the gateway's Close.
var errPeerTierClosed = errors.New("gateway: peer tier closed")

// fill resolves a store miss through the tenant's owner: pull epoch
// vt.Epoch of the tenant's whole artifact, then answer item i from
// the local store. ok reports whether the peer path produced an
// answer; on false the caller falls back to replica fetch.
//
//lint:coldpath one whole-artifact transfer per (tenant, epoch, peer) residency; every later query is a local bit probe
func (p *peerTier) fill(ctx context.Context, vt engine.VersionedTenant, item int) (in, ok bool) {
	if !p.pull(ctx, vt) {
		return false, false
	}
	in, ok, err := p.g.opts.Store.LookupEpoch(ctx, vt, item)
	return in, ok && err == nil
}

// pull transfers vt's artifact from the tenant's owner into the local
// store, unless this gateway owns the tenant: the ring made it the
// authority, and peers pull from it. Concurrent pulls of one (tenant,
// epoch) share one transfer, and a failed transfer is not retried for
// peerRetry. It reports whether the artifact arrived, by this call or
// by the transfer it joined.
//
//lint:coldpath one whole-artifact transfer per (tenant, epoch, peer) residency
func (p *peerTier) pull(ctx context.Context, vt engine.VersionedTenant) bool {
	owner := p.ring.owner(vt.Tenant)
	if owner == p.ring.self {
		return false
	}
	p.mu.Lock()
	if t, failed := p.failedAt[vt]; failed && time.Since(t) < peerRetry {
		p.mu.Unlock()
		return false
	}
	if fl, inFlight := p.flights[vt]; inFlight {
		p.mu.Unlock()
		select {
		case <-fl.done:
			return fl.err == nil
		case <-ctx.Done():
			return false
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
		return false
	}
	return true
}

// pullInBackground starts pull(vt) for a caller that must not wait on
// a peer (an epoch roll). The pull runs under the tier's context, so
// close cancels it and waits for it; the store's Put hook installs the
// artifact when it lands.
func (p *peerTier) pullInBackground(vt engine.VersionedTenant) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.pull(p.ctx, vt)
	}()
}

// fetchAndBackfill transfers one (tenant, epoch) artifact from peer
// addr, presenting the key this gateway's Authorizer grants the
// tenant, and persists it in the local store. The artifact's own
// trailer checksum guards the transfer: corrupt bytes are rejected
// before touching disk, and the pull is retried after the dwell.
func (p *peerTier) fetchAndBackfill(ctx context.Context, addr string, vt engine.VersionedTenant) error {
	c, err := p.client(ctx, addr)
	if err != nil {
		return fmt.Errorf("gateway: peer %s: %w", addr, err)
	}
	start := time.Now()
	data, err := c.FetchArtifact(ctx, vt.Tenant, vt.Epoch, p.g.opts.Auth.keyFor(vt.Tenant))
	if err != nil {
		return fmt.Errorf("gateway: peer %s: %w", addr, err)
	}
	a, err := p.g.opts.Store.PutBytes(ctx, data)
	if err != nil {
		return fmt.Errorf("gateway: backfill from %s: %w", addr, err)
	}
	p.g.counters.peerFills.Add(1)
	obs.AddEvent(ctx, "gateway.peer_fill",
		obs.String("tenant", vt.String()), obs.String("peer", addr),
		obs.Int("bytes", int64(a.Size())), obs.String("wall", time.Since(start).String()))
	return nil
}

// close cancels the background pulls, releases the peer connections —
// which fails any transfer still reading — and waits for the pulls to
// return.
func (p *peerTier) close() {
	p.cancel()
	p.mu.Lock()
	p.closed = true
	for addr, c := range p.clients {
		_ = c.Close()
		delete(p.clients, addr)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// artifactTier answers item i at epoch ep from the materialized
// tiers: the local artifact store first, then (on a store miss for a
// tenant another peer owns) the peer tier. ok=false falls the query
// through to the replica fleet — the tiers only ever short-circuit
// work, never change an answer, because an artifact bit and a replica
// answer are the same pure function C(I_e, r) evaluated in different
// places. A hit at the current epoch adopts that epoch's artifact, so
// the tenant's next frame reads the bitset directly: this is how a
// gateway that was never warmed reaches the fast path.
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

// ArtifactBytes implements cluster.ArtifactProvider: it returns this
// gateway's stored artifact of tenant id at epoch ep. The artifact
// holds every answer of the tenant at once, so the wire server reads
// it only for a MsgStoreFetch frame that has resolved through
// ResolveEpoch — the frame's key checked against the tenant, an
// unserved tenant refused, the epoch resolved — exactly as for a
// batch read of those answers. In-process callers are not
// authenticated: they already hold the Gateway.
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
// made servable. With a peer tier, a tenant another peer owns whose
// artifact is not local is pulled from its owner first. Tenants
// without an artifact are skipped silently — absence is the normal
// cold state, not an error, and a failed pull counts in PeerFillErrors.
func (g *Gateway) WarmAllFromStore(ctx context.Context) (int, error) {
	st := g.opts.Store
	if st == nil {
		return 0, nil
	}
	total := 0
	for _, id := range g.Tenants() {
		vt := engine.VersionedTenant{Tenant: id, Epoch: g.tenants[id].currentEpoch()}
		if !st.HasVersioned(vt) && (g.peerTier == nil || !g.peerTier.pull(ctx, vt)) {
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

// ensure the provider seam stays implemented.
var _ cluster.ArtifactProvider = (*Gateway)(nil)
