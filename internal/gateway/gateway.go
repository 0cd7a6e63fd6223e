// Package gateway is the consistency-preserving serving front door of
// the distributed deployment: one address that fans out to a fleet of
// LCA replica servers with connection pooling, health-checked
// failover, hedged requests, and a deterministic answer cache.
//
// Every feature is an application of the paper's central guarantee.
// Definition 2.2 makes the answered solution C(I, r) a pure function
// of the instance and the shared seed, and Theorem 4.1 (via the
// reproducible rule of Lemma 4.9) ensures every replica computes it:
// replicas are interchangeable bit-for-bit. Failover to another
// replica cannot change an answer; racing two replicas and keeping
// the first response cannot change an answer; caching an answer
// forever cannot serve a stale one (there is no staleness — answers
// are immutable); deduplicating concurrent identical queries cannot
// couple callers that expected different results (there are none).
// Serving-layer machinery that is delicate in stateful systems becomes
// trivially correct here — the operational payoff of the LCA model.
//
// A Gateway implements cluster.Backend, so cluster.NewQueryServer
// exposes it on the same wire protocol the replicas speak: clients
// cannot distinguish a gateway from a replica except by its latency
// and availability.
package gateway

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/store"
)

// Defaults applied by Options.withDefaults.
const (
	// DefaultPoolSize is the idle-connection cap per replica.
	DefaultPoolSize = 4
	// DefaultCacheSize is the answer-cache capacity in entries.
	DefaultCacheSize = 1 << 16
	// DefaultMaxAttempts bounds per-query replica attempts.
	DefaultMaxAttempts = 3
	// DefaultRetryBackoff is the base of the exponential retry backoff.
	DefaultRetryBackoff = 2 * time.Millisecond
	// DefaultMaxBatch caps one warm-up batch frame.
	DefaultMaxBatch = 256
	// DefaultHealthInterval is the replica ping period.
	DefaultHealthInterval = 250 * time.Millisecond
	// DefaultBreakerThreshold is the consecutive-failure count that
	// trips a replica's circuit breaker open.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long a tripped breaker stays open
	// before a half-open probe is allowed.
	DefaultBreakerCooldown = time.Second
)

// Options configures a Gateway.
type Options struct {
	// Replicas are the replica server addresses (at least one).
	Replicas []string
	// Instance identifies the served instance I and Seed the shared
	// LCA seed r; together they name the solution C(I, r) the default
	// tenant answers from, and they key its slice of the answer cache.
	// The default tenant serves untenanted wire frames and the plain
	// InSolution/InSolutionBatch methods. Like every tenant's, its
	// replica frames name (tenant, epoch), so each replica must serve
	// that tenant — a replica serving another answers with an
	// unknown-tenant error.
	Instance uint64
	Seed     uint64
	// Tenants are the explicitly served namespaces beyond the default.
	// An entry naming the default (Instance, Seed) replaces the default
	// tenant's config (attaching a quota to it).
	Tenants []TenantOptions
	// Auth, when set, requires every wire frame resolved through
	// Resolve — artifact fetches included — to carry an API key
	// granted the addressed tenant. In-process calls (the exported
	// methods) are not authenticated — the caller already holds the
	// Gateway. With Peers, the gateway's own artifact fetches present
	// a key Auth grants the tenant, so a ring shares one key file.
	Auth *Authorizer
	// PoolSize caps idle pooled connections per replica (0 selects
	// DefaultPoolSize).
	PoolSize int
	// RPCTimeout bounds each replica round trip (0 selects
	// cluster.DefaultTimeout).
	RPCTimeout time.Duration
	// MaxAttempts bounds replica attempts per query, the first try
	// included (0 selects DefaultMaxAttempts).
	MaxAttempts int
	// RetryBackoff is the base of the exponential backoff between
	// attempts (0 selects DefaultRetryBackoff).
	RetryBackoff time.Duration
	// HedgeDelay controls hedged requests: > 0 fires the hedge after a
	// fixed delay, 0 adapts the delay to the observed p95 latency, < 0
	// disables hedging.
	HedgeDelay time.Duration
	// CacheSize is the answer-cache capacity in entries (0 selects
	// DefaultCacheSize, < 0 disables caching).
	CacheSize int
	// MaxBatch caps the items of one warm-up frame: Warm and
	// WarmTenant fetch in frames of at most MaxBatch items (0 selects
	// DefaultMaxBatch). Queries' frames are not capped.
	MaxBatch int
	// HealthInterval is the replica ping period (0 selects
	// DefaultHealthInterval).
	HealthInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's breaker (0 selects DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is the open dwell time before a half-open probe
	// (0 selects DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// RouteSeed seeds the router's operational randomness (replica
	// picks, backoff jitter). Purely operational: it cannot influence
	// any answer bit.
	RouteSeed uint64
	// Tracer, when set, opens one span per gateway query
	// ("gateway.query" / "gateway.batch") and propagates the trace to
	// the replica over the wire frame's trace header, so one client
	// query can be followed across the gateway→replica hop.
	Tracer *obs.Tracer
	// Store, when set, mounts the materialized artifact tier: each
	// tenant serves its current epoch straight from that epoch's
	// artifact once one is installed (by WarmFromStore, SetTenantEpoch,
	// a Put into the store — a peer pull included — or a store hit),
	// other misses consult the local artifact store after the cache and
	// before the fleet, and the gateway serves its artifacts to peers
	// over MsgStoreFetch (cluster.ArtifactProvider), each fetch keyed
	// like a read. The gateway takes the store's one Put hook until
	// Close.
	Store *store.Store
	// Peers are the other gateways' wire addresses in the peer-fill
	// ring, which assigns each tenant one owner. With a Store and at
	// least one peer configured, a gateway that does not own a tenant
	// pulls the tenant's current-epoch artifact from the owner at boot
	// (WarmAllFromStore), after a roll (SetTenantEpoch), and on a store
	// miss, before falling back to replica fetch. Ignored without a
	// Store.
	Peers []string
	// SelfAddr is this gateway's own advertised wire address in the
	// peer ring — required when Peers is non-empty, so every gateway
	// places itself and its peers identically on the ring.
	SelfAddr string
}

// withDefaults returns opts with zero values resolved.
func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = DefaultPoolSize
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = cluster.DefaultTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.CacheSize == 0 {
		o.CacheSize = DefaultCacheSize
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = DefaultHealthInterval
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.RouteSeed == 0 {
		o.RouteSeed = 1
	}
	return o
}

// Gateway fronts a replica fleet behind a single Backend surface,
// multiplexing any number of tenants over one shared pool, cache, and
// router. The tenant set is fixed at New: each tenant owns its wire
// namespace, quota, and counters, while connections and
// breakers stay per replica (replicas are multi-tenant).
type Gateway struct {
	opts     Options
	counters counters
	pool     *pool
	router   *router
	cache    *answerCache // nil when caching is disabled
	peerTier *peerTier    // nil unless Store and Peers are configured

	// def serves untenanted frames and the plain exported methods;
	// tenants indexes every served namespace (def included). The map is
	// read-only after New.
	def     *tenant
	tenants map[engine.TenantID]*tenant

	// lat records point-query fleet-fetch latency (cache misses; hits
	// skip the clock entirely); rpcLat records successful replica round
	// trips, fed by the router.
	lat    obs.Histogram
	rpcLat obs.Histogram

	closeOnce sync.Once
}

var (
	_ cluster.Backend       = (*Gateway)(nil)
	_ cluster.TenantBackend = (*Gateway)(nil)
	_ cluster.EpochBackend  = (*Gateway)(nil)
)

// New builds a gateway over the configured replica fleet. Connections
// are dialed lazily, so New succeeds even while replicas are still
// starting; the health loop and per-query failover sort out who is
// reachable.
func New(opts Options) (*Gateway, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: %w: no replica addresses configured", ErrNoReplicas)
	}
	opts = opts.withDefaults()
	g := &Gateway{opts: opts}
	g.pool = newPool(opts.Replicas, opts.RPCTimeout, opts.PoolSize, opts.HealthInterval,
		opts.BreakerThreshold, opts.BreakerCooldown, &g.counters)
	g.router = newRouter(g.pool, &g.counters, opts.MaxAttempts, opts.RetryBackoff, opts.HedgeDelay, opts.RouteSeed)
	g.router.rpcHist = &g.rpcLat
	if opts.CacheSize > 0 {
		g.cache = newAnswerCache(opts.CacheSize)
	}
	if opts.Store != nil && len(opts.Peers) > 0 {
		if opts.SelfAddr == "" {
			return nil, fmt.Errorf("gateway: peers configured without a self address for the ring")
		}
		g.peerTier = newPeerTier(g, opts.SelfAddr, opts.Peers, opts.RPCTimeout)
	}

	defID := engine.TenantID{Instance: opts.Instance, Seed: opts.Seed}
	g.tenants = make(map[engine.TenantID]*tenant, len(opts.Tenants)+1)
	g.def = g.newTenant(defID, TenantOptions{})
	g.tenants[defID] = g.def
	for _, to := range opts.Tenants {
		id := engine.TenantID{Instance: to.Instance, Seed: to.Seed}
		if id == defID {
			// Reconfigure the default tenant (typically to attach a
			// quota).
			g.def = g.newTenant(defID, to)
			g.tenants[defID] = g.def
			continue
		}
		if _, dup := g.tenants[id]; dup {
			g.Close()
			return nil, fmt.Errorf("gateway: tenant %s configured twice", id)
		}
		g.tenants[id] = g.newTenant(id, to)
	}
	if opts.Store != nil {
		// Hooked only once the tenant map is complete: the hook reads it.
		opts.Store.SetOnPut(g.onPut)
	}
	return g, nil
}

// onPut is the store's Put hook. It installs the artifact on its
// tenant, so an epoch whose artifact lands after the roll — a late
// Put or a peer pull — reaches the fast path even when the cache
// already covers every item asked for.
func (g *Gateway) onPut(a *store.Artifact) {
	if t, ok := g.tenants[engine.TenantID{Instance: a.Instance, Seed: a.Seed}]; ok {
		t.install(a)
	}
}

// Resolve is the cluster.TenantBackend seam: it authenticates the
// frame's API key (when an Authorizer is configured), then routes the
// frame to its tenant — the default for untenanted frames, the named
// tenant otherwise — served at the tenant's current epoch. Unknown
// tenants are rejected; so are authorized keys lacking a grant for the
// addressed tenant.
func (g *Gateway) Resolve(_ context.Context, q cluster.TenantQuery) (cluster.Backend, error) {
	id := g.def.id
	if q.Tenanted {
		id = q.ID
	}
	if g.opts.Auth != nil && !g.opts.Auth.Allow(q.Key, id) {
		g.counters.authRejects.Add(1)
		return nil, fmt.Errorf("%w: tenant %s", ErrUnauthorized, id)
	}
	t, ok := g.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", cluster.ErrUnknownTenant, id)
	}
	return t, nil
}

// ResolveEpoch is the cluster.EpochBackend seam every wire frame is
// resolved through: same authentication and tenant routing as Resolve,
// then the requested epoch is pinned — engine.EpochCurrent resolves
// to the tenant's current epoch once, here, so every index of the
// frame (and any retry or hedge of it) is served from the same sealed
// instance. The returned Backend answers only at that epoch; the
// returned EpochID is what the response frame echoes.
func (g *Gateway) ResolveEpoch(ctx context.Context, q cluster.TenantQuery) (cluster.Backend, engine.EpochID, error) {
	b, err := g.Resolve(ctx, q)
	if err != nil {
		return nil, 0, err
	}
	t := b.(*tenant)
	ep := t.resolveEpoch(q.Epoch)
	return epochView{t: t, ep: ep}, ep, nil
}

// epochView is one tenant pinned to one concrete epoch: the Backend a
// resolved epoch-carrying frame is served from. Pinning at resolve
// time is what makes a batch frame epoch-atomic — every index goes
// through the same ep, even if the tenant rolls over mid-frame.
type epochView struct {
	t  *tenant
	ep engine.EpochID
}

func (v epochView) InSolution(ctx context.Context, i int) (bool, error) {
	return v.t.inSolutionAt(ctx, v.ep, i)
}

func (v epochView) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	return v.t.inSolutionBatchAt(ctx, v.ep, indices)
}

// SetTenantEpoch advances tenant id's current serving epoch — the
// epoch its unpinned queries answer from. Regressions
// are refused: epochs are sealed in order, and rolling "back" would
// make the tenant's unpinned answers flap between instances.
// Already-pinned queries are untouched either way — epoch e's cache
// keys, artifacts, and frames remain valid and queryable forever.
// With a store, the new epoch's artifact, when the store has it, is
// installed as the tenant's first tier; after Store.Put it is already
// resident, so the roll stays a map load. With a peer tier, a gateway
// that does not own the tenant and lacks the artifact pulls it from
// the owner in the background, and the store's Put hook installs it.
func (g *Gateway) SetTenantEpoch(id engine.TenantID, ep engine.EpochID) error {
	t, ok := g.tenants[id]
	if !ok {
		return fmt.Errorf("%w: %s", cluster.ErrUnknownTenant, id)
	}
	for {
		cur := t.epoch.Load()
		if uint64(ep) < cur {
			return fmt.Errorf("gateway: tenant %s: epoch regression %d -> %d", id, cur, ep)
		}
		if t.epoch.CompareAndSwap(cur, uint64(ep)) {
			if g.opts.Store != nil {
				t.adopt(context.TODO(), ep)
			}
			if g.peerTier != nil && t.artifactAt(ep) == nil {
				g.peerTier.pullInBackground(engine.VersionedTenant{Tenant: id, Epoch: ep})
			}
			return nil
		}
	}
}

// TenantEpoch reports tenant id's current serving epoch.
func (g *Gateway) TenantEpoch(id engine.TenantID) (engine.EpochID, bool) {
	t, ok := g.tenants[id]
	if !ok {
		return 0, false
	}
	return t.currentEpoch(), true
}

// InSolution answers one membership query for the default tenant:
// cache first, then a single-flight-deduplicated fetch from the fleet.
func (g *Gateway) InSolution(ctx context.Context, i int) (bool, error) {
	return g.def.InSolution(ctx, i)
}

// InSolutionEpoch answers one membership query for the default tenant
// pinned to epoch ep (engine.EpochCurrent resolves to the tenant's
// current epoch). A pinned query is served bit-identically forever:
// epoch e's answers are a pure function of (I_e, r), so rollover to
// e+1 cannot perturb them.
func (g *Gateway) InSolutionEpoch(ctx context.Context, ep engine.EpochID, i int) (bool, error) {
	return g.def.InSolutionEpoch(ctx, ep, i)
}

// InSolutionBatchEpoch answers a batch of membership queries for the
// default tenant, all pinned to one epoch.
func (g *Gateway) InSolutionBatchEpoch(ctx context.Context, ep engine.EpochID, indices []int) ([]bool, error) {
	return g.def.InSolutionBatchEpoch(ctx, ep, indices)
}

// InSolutionBatch answers a batch of membership queries for the
// default tenant, serving what it can from the cache and fetching the
// rest in one frame. Mixing cached and freshly fetched answers in one
// response is sound for the same reason failover is: there is exactly
// one answer per index (Theorem 4.1), however and whenever it was
// obtained.
func (g *Gateway) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	return g.def.InSolutionBatch(ctx, indices)
}

// Tenants returns the served tenant IDs (the default included), sorted
// by instance then seed.
func (g *Gateway) Tenants() []engine.TenantID {
	out := make([]engine.TenantID, 0, len(g.tenants))
	for id := range g.tenants {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instance != out[j].Instance {
			return out[i].Instance < out[j].Instance
		}
		return out[i].Seed < out[j].Seed
	})
	return out
}

// TenantMetrics snapshots one tenant's serving counters.
func (g *Gateway) TenantMetrics(id engine.TenantID) (TenantMetrics, bool) {
	t, ok := g.tenants[id]
	if !ok {
		return TenantMetrics{}, false
	}
	return t.metrics(), true
}

// TenantExposition renders one served tenant's counters as a
// Prometheus-text exposition, answering tenant-scoped wire scrapes
// (cluster.TenantMetricsProvider) — the gateway-side counterpart of a
// multi-tenant replica's per-tenant engine scrape. The scrape is
// already tenant-scoped, so the names stay unlabeled.
func (g *Gateway) TenantExposition(id engine.TenantID) (string, error) {
	tm, ok := g.TenantMetrics(id)
	if !ok {
		return "", fmt.Errorf("%w: %s", cluster.ErrUnknownTenant, id)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "lcakp_gateway_tenant_batch_queries_total %d\n", tm.BatchQueries)
	fmt.Fprintf(&b, "lcakp_gateway_tenant_cache_hits_total %d\n", tm.CacheHits)
	fmt.Fprintf(&b, "lcakp_gateway_tenant_cache_misses_total %d\n", tm.CacheMisses)
	fmt.Fprintf(&b, "lcakp_gateway_tenant_epoch %d\n", tm.Epoch)
	fmt.Fprintf(&b, "lcakp_gateway_tenant_epoch_queries_total %d\n", tm.EpochQueries)
	fmt.Fprintf(&b, "lcakp_gateway_tenant_queries_total %d\n", tm.Queries)
	fmt.Fprintf(&b, "lcakp_gateway_tenant_quota_rejects_total %d\n", tm.QuotaRejects)
	return b.String(), nil
}

// Ping reports reachability: it succeeds if any replica answers.
func (g *Gateway) Ping(ctx context.Context) error {
	var lastErr error
	for _, m := range g.pool.members {
		c, err := m.get(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		err = c.Ping(ctx)
		m.put(c)
		if err == nil {
			return nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrNoReplicas
	}
	return fmt.Errorf("gateway: ping: %w", lastErr)
}

// Healthy returns the addresses of currently healthy replicas.
func (g *Gateway) Healthy() []string {
	members := g.pool.healthySnapshot()
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = m.addr
	}
	return out
}

// Metrics returns a snapshot of the gateway's serving counters.
func (g *Gateway) Metrics() Metrics { return g.counters.snapshot() }

// Latency returns a snapshot of the point-query fetch latency
// distribution (cache misses reaching the fleet; cache hits are not
// clock-sampled).
func (g *Gateway) Latency() obs.Snapshot { return g.lat.Snapshot() }

// Warm preloads the answer cache with the given items for the default
// tenant, fetching the not-yet-resident ones from the fleet in
// MaxBatch-sized frames. It returns how many entries were actually
// fetched and cached (duplicate and already-resident items are
// skipped). Warming is sound for the usual reason: answers are
// immutable, so an entry loaded before any client asked can never be
// stale. Typical use is pre-warming the hot item range at startup so
// the first client burst hits the cache.
func (g *Gateway) Warm(ctx context.Context, items []int) (int, error) {
	return g.def.warm(ctx, items)
}

// WarmTenant is Warm for one configured tenant.
func (g *Gateway) WarmTenant(ctx context.Context, id engine.TenantID, items []int) (int, error) {
	t, ok := g.tenants[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", cluster.ErrUnknownTenant, id)
	}
	return t.warm(ctx, items)
}

// Close stops the health loop, cancels the peer tier's background
// pulls and waits for them, and closes all pooled connections. It is
// idempotent.
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		if g.opts.Store != nil {
			// Detach the Put hook first so a Put racing Close installs
			// nothing on a closing gateway.
			g.opts.Store.SetOnPut(nil)
		}
		if g.peerTier != nil {
			g.peerTier.close()
		}
		g.pool.close()
	})
	return nil
}
