package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/store"
)

// Admission errors. They surface to wire clients as remote errors
// carrying these strings.
var (
	// ErrUnauthorized rejects a frame whose API key is missing, unknown,
	// or not granted the addressed tenant.
	ErrUnauthorized = errors.New("gateway: unauthorized")
	// ErrQuotaExceeded rejects a query that would overdraw its tenant's
	// token bucket.
	ErrQuotaExceeded = errors.New("gateway: quota exceeded")
)

// TenantOptions configures one explicitly served tenant.
type TenantOptions struct {
	// Instance and Seed name the tenant's solution C(I, r).
	Instance uint64
	Seed     uint64
	// RateLimit is the tenant's admission rate in queries/second (each
	// batch index counts as one query); 0 means unlimited.
	RateLimit float64
	// Burst caps the token bucket (0 selects one second of RateLimit,
	// minimum 1).
	Burst int
}

// tenantCounters is one tenant's slice of the serving accounting,
// exposed per tenant by RegisterMetrics and read by TenantMetrics.
type tenantCounters struct {
	queries      obs.Counter
	batchQueries obs.Counter
	cacheHits    obs.Counter
	cacheMisses  obs.Counter
	quotaRejects obs.Counter
	// epochQueries counts the queries (point and batch indices alike)
	// served at sealed epochs, those above 0, whether pinned there or
	// unpinned after a roll — the epoch-scoped slice of the quota
	// accounting.
	epochQueries obs.Counter
}

// TenantMetrics is a snapshot of one tenant's counters.
type TenantMetrics struct {
	Queries, BatchQueries  int64
	CacheHits, CacheMisses int64
	QuotaRejects           int64
	// Epoch is the tenant's current serving epoch; EpochQueries counts
	// the queries (point and batch indices alike) served at sealed
	// epochs, those above 0 — the epoch-scoped slice of the quota
	// accounting.
	Epoch        uint64
	EpochQueries int64
}

// tenant is one served namespace: its share of the answer cache (via
// key prefix), its quota, its counters, and the artifact of its
// current epoch. It implements cluster.Backend, so resolving a frame's tenant
// yields the thing that answers it.
//
// The shared machinery — pool, breakers, router, cache shards — is the
// gateway's: replicas are multi-tenant, so connections and health are
// per replica, not per tenant, and cache keys already carry
// (Instance, Seed). What must not be shared is exactly what is not:
// wire namespacing, admission, and accounting.
type tenant struct {
	g  *Gateway
	id engine.TenantID
	// label is id.String() computed once at construction, so event and
	// exemplar attribution never formats on a serving path.
	label string
	// epoch is the tenant's current serving epoch, advanced by
	// Gateway.SetTenantEpoch when a rollover completes. An unpinned
	// query resolves to it once, at admission; from there the query
	// names (tenant, epoch) in its cache key, store address, and every
	// replica frame.
	epoch atomic.Uint64
	// art is the resident artifact of the tenant's current epoch, nil
	// until one is installed (see install). It is the first tier a
	// frame tries: a frame resolved to art's epoch reads every covered
	// position straight from the bitset, with no cache or store call.
	// The pointer only moves forward, so for a moment after a roll it
	// may still hold the previous epoch's artifact; the epoch check on
	// the read side (artifactAt) is what keeps those bits off frames of
	// the new epoch.
	art   atomic.Pointer[store.Artifact]
	quota *tokenBucket
	c     tenantCounters
}

var _ cluster.Backend = (*tenant)(nil)

// newTenant builds one tenant's serving state.
func (g *Gateway) newTenant(id engine.TenantID, to TenantOptions) *tenant {
	t := &tenant{g: g, id: id, label: id.String()}
	if to.RateLimit > 0 {
		t.quota = newTokenBucket(to.RateLimit, to.Burst)
	}
	return t
}

// routerCall fans the tenant's batch out to the fleet at epoch ep.
// Every frame — first try, retries, hedges — names (tenant, ep), so
// failover can never slide a query onto a different instance version
// mid-rollover, and no replica answers at its own current epoch on the
// gateway's behalf.
func (t *tenant) routerCall(ctx context.Context, ep engine.EpochID, indices []int) ([]bool, error) {
	return t.g.router.route(ctx, engine.VersionedTenant{Tenant: t.id, Epoch: ep}, indices)
}

// key builds the cache key for item i under this tenant at epoch ep.
// Epochs get disjoint keys — the cache-isolation property: no entry
// written at epoch e can ever answer a query for epoch e'.
func (t *tenant) key(ep engine.EpochID, i int) Key {
	return Key{Instance: t.id.Instance, Seed: t.id.Seed, Epoch: uint64(ep), Item: i}
}

// currentEpoch is the tenant's current epoch as set by SetTenantEpoch.
func (t *tenant) currentEpoch() engine.EpochID {
	return engine.EpochID(t.epoch.Load())
}

// resolveEpoch maps the engine.EpochCurrent sentinel to the tenant's
// current epoch; concrete pins pass through.
func (t *tenant) resolveEpoch(ep engine.EpochID) engine.EpochID {
	if ep == engine.EpochCurrent {
		return t.currentEpoch()
	}
	return ep
}

// admit charges n queries against the tenant's quota. Charging happens
// at admission, before the cache: the quota meters the tenant's query
// budget (Definition 2.2's resource), and a cached answer still
// consumed that budget when it was first computed on the tenant's
// behalf.
func (t *tenant) admit(ctx context.Context, n int) error {
	if t.quota == nil || t.quota.take(n) {
		return nil
	}
	t.g.counters.quotaRejects.Add(1)
	t.c.quotaRejects.Add(1)
	//lint:alloc rejection path: the event attrs ride an error return, not the admitted flow
	obs.AddWarnEvent(ctx, "gateway.quota_reject",
		obs.String("tenant", t.label), obs.Int("charged", int64(n)))
	return fmt.Errorf("%w: tenant %s", ErrQuotaExceeded, t.id)
}

// artifactAt returns the tenant's installed artifact when it is epoch
// ep's, else nil: one atomic load per frame, and a nil pointer on a
// gateway without a store.
func (t *tenant) artifactAt(ep engine.EpochID) *store.Artifact {
	if a := t.art.Load(); a != nil && a.Epoch == uint64(ep) {
		return a
	}
	return nil
}

// install makes a, an artifact of this tenant, the one frames read
// first. It never installs an artifact of a non-current epoch and
// never moves the pointer back to an older epoch, whatever order
// concurrent installs and rolls run in.
func (t *tenant) install(a *store.Artifact) {
	for {
		old := t.art.Load()
		if a.Epoch != t.epoch.Load() || (old != nil && old.Epoch >= a.Epoch) {
			return
		}
		if t.art.CompareAndSwap(old, a) {
			return
		}
	}
}

// adopt installs the store's artifact of epoch ep when ep is the
// current epoch and the pointer is behind it. A resident artifact
// costs one map load; an absent one an os.Stat, which is why only
// SetTenantEpoch and store hits call it, never a cache hit.
//
//lint:coldpath runs on rolls and store hits; the store is read once per (tenant, epoch), later calls return after two atomic loads
func (t *tenant) adopt(ctx context.Context, ep engine.EpochID) {
	if ep != t.currentEpoch() {
		return
	}
	if a := t.art.Load(); a != nil && a.Epoch >= uint64(ep) {
		return
	}
	if a, err := t.g.opts.Store.GetVersioned(ctx, engine.VersionedTenant{Tenant: t.id, Epoch: ep}); err == nil {
		t.install(a)
	}
}

// fetchOne resolves one item without the answer cache, through the
// serving tiers in cost order: the materialized artifact tier first
// (local store, then peer-fill — see artifactTier), then the replica
// fleet.
func (t *tenant) fetchOne(ctx context.Context, ep engine.EpochID, i int) (bool, error) {
	if answer, ok := t.artifactTier(ctx, ep, i); ok {
		return answer, nil
	}
	return t.fetchFleet(ctx, ep, i)
}

// fetchFleet resolves one item from the replica fleet in a
// single-index batch frame. Concurrent misses of one (tenant, epoch)
// need no batching here: the replica shares its in-flight derivation
// among overlapping queries. Fleet fetches record latency; a traced
// fetch leaves its trace ID as the latency bucket's exemplar and
// stamps a cache_fill event on the active span, so a tail bucket in
// /metrics names a replayable miss.
func (t *tenant) fetchFleet(ctx context.Context, ep engine.EpochID, i int) (answer bool, err error) {
	start := time.Now()
	//lint:alloc miss path: one single-index batch per fetch, against a wire round trip
	answers, err := t.routerCall(ctx, ep, []int{i})
	if err == nil {
		answer = answers[0]
	}
	d := time.Since(start)
	t.g.lat.ObserveExemplar(d, obs.TraceIDFromContext(ctx), t.label)
	if span := obs.ActiveSpanFromContext(ctx); span != nil && err == nil {
		//lint:alloc traced miss path only: attrs priced against a wire round trip
		span.Event("gateway.cache_fill",
			obs.String("tenant", t.label), obs.Int("item", int64(i)))
	}
	return answer, err
}

// InSolution answers one membership query at the tenant's current
// epoch: admission, the installed artifact, the cache, the artifact
// tier, then a single-flight-deduplicated fetch from the fleet.
// Latency is observed on the fleet path only — an artifact or cache
// hit reads no clock, keeping the hit path's observability overhead at
// effectively zero.
func (t *tenant) InSolution(ctx context.Context, i int) (bool, error) {
	return t.inSolutionAt(ctx, t.currentEpoch(), i)
}

// InSolutionEpoch is InSolution pinned to one sealed epoch (or the
// engine.EpochCurrent sentinel). The pin travels the whole path —
// cache key, store address, wire frame — so the
// answer is a bit of exactly C(I_ep, r) no matter which tier or
// replica produced it.
func (t *tenant) InSolutionEpoch(ctx context.Context, ep engine.EpochID, i int) (bool, error) {
	return t.inSolutionAt(ctx, t.resolveEpoch(ep), i)
}

// inSolutionAt serves one point query at a resolved epoch.
func (t *tenant) inSolutionAt(ctx context.Context, ep engine.EpochID, i int) (bool, error) {
	if t.g.opts.Tracer != nil {
		var span *obs.Span
		ctx, span = t.g.opts.Tracer.StartSpan(ctx, "gateway.query")
		defer span.End()
	}
	if err := t.admit(ctx, 1); err != nil {
		return false, err
	}
	t.g.counters.queries.Add(1)
	t.c.queries.Add(1)
	if ep != 0 {
		t.c.epochQueries.Add(1)
	}
	if a := t.artifactAt(ep); a != nil {
		if answer, ok := a.Answer(i); ok {
			t.g.counters.storeServes.Add(1)
			return answer, nil
		}
	}
	if t.g.cache == nil {
		return t.fetchOne(ctx, ep, i)
	}
	k := t.key(ep, i)
	if answer, ok := t.g.cache.get(k); ok {
		t.g.counters.cacheHits.Add(1)
		t.c.cacheHits.Add(1)
		return answer, nil
	}
	// The artifact tier answers before any single-flight record is
	// made: reading a resident bit costs less than deduplicating the
	// readers, so only replica-bound misses register a flight. Its bits
	// stay out of the cache, which holds only what replicas derived.
	if answer, ok := t.artifactTier(ctx, ep, i); ok {
		t.g.counters.cacheMisses.Add(1)
		t.c.cacheMisses.Add(1)
		return answer, nil
	}
	//lint:alloc stays on the stack: do only calls fn, never retains it — the cached-hit and store-served point pins measure 0 allocs/op
	answer, oc, err := t.g.cache.do(ctx, k, func() (bool, error) {
		return t.fetchFleet(ctx, ep, i)
	})
	switch oc {
	case outcomeHit:
		// Another caller filled k between the lookup above and do.
		t.g.counters.cacheHits.Add(1)
		t.c.cacheHits.Add(1)
	case outcomeShared:
		t.g.counters.cacheMisses.Add(1)
		t.c.cacheMisses.Add(1)
		t.g.counters.flightsShared.Add(1)
	default:
		t.g.counters.cacheMisses.Add(1)
		t.c.cacheMisses.Add(1)
	}
	return answer, err
}

// InSolutionBatch answers a batch at the tenant's current epoch,
// serving what it can from the installed artifact, the cache and the
// artifact tier, and fetching the rest in one frame under the tenant's
// namespace. Admission charges the whole batch up front
// (all-or-nothing).
func (t *tenant) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	return t.inSolutionBatchAt(ctx, t.currentEpoch(), indices)
}

// InSolutionBatchEpoch is InSolutionBatch pinned to one sealed epoch
// (or the engine.EpochCurrent sentinel).
func (t *tenant) InSolutionBatchEpoch(ctx context.Context, ep engine.EpochID, indices []int) ([]bool, error) {
	return t.inSolutionBatchAt(ctx, t.resolveEpoch(ep), indices)
}

// inSolutionBatchAt serves one batch at a resolved epoch. A position
// the installed artifact of ep covers is read from its bitset and
// counted with the others once per frame. Every other position tries
// the cache (when there is one), then the artifact tier, in place; a
// repeated item is just another lookup. Only the replica-bound
// remainder is gathered, and it rides one frame with each distinct
// item once.
func (t *tenant) inSolutionBatchAt(ctx context.Context, ep engine.EpochID, indices []int) ([]bool, error) {
	if t.g.opts.Tracer != nil {
		var span *obs.Span
		ctx, span = t.g.opts.Tracer.StartSpan(ctx, "gateway.batch")
		defer span.End()
	}
	if err := t.admit(ctx, len(indices)); err != nil {
		return nil, err
	}
	t.g.counters.batchQueries.Add(1)
	t.c.batchQueries.Add(1)
	if ep != 0 {
		t.c.epochQueries.Add(int64(len(indices)))
	}
	if len(indices) == 0 {
		return nil, nil
	}

	answers := make([]bool, len(indices)) //lint:alloc escapes to the caller, which owns the answers
	a := t.artifactAt(ep)
	served := 0     // positions the installed artifact answered
	var fleet []int // positions no tier before the fleet answered
	for pos, item := range indices {
		if a != nil {
			if answer, ok := a.Answer(item); ok {
				answers[pos] = answer
				served++
				continue
			}
		}
		if t.g.cache != nil {
			if answer, ok := t.g.cache.get(t.key(ep, item)); ok {
				t.g.counters.cacheHits.Add(1)
				t.c.cacheHits.Add(1)
				answers[pos] = answer
				continue
			}
			t.g.counters.cacheMisses.Add(1)
			t.c.cacheMisses.Add(1)
		}
		if answer, ok := t.artifactTier(ctx, ep, item); ok {
			answers[pos] = answer
			continue
		}
		if fleet == nil {
			fleet = make([]int, 0, len(indices)-pos) //lint:alloc replica-bound path: allocated on the first miss the artifact tier cannot answer, priced against the wire round trip
		}
		fleet = append(fleet, pos)
	}
	if served > 0 {
		t.g.counters.storeServes.Add(int64(served))
	}
	if len(fleet) == 0 {
		return answers, nil
	}
	if err := t.fetchBatch(ctx, ep, indices, fleet, answers); err != nil {
		return nil, err
	}
	return answers, nil
}

// fetchBatch answers the replica-bound positions of a batch in one
// frame, each distinct item once, and caches what the fleet returned
// (when there is a cache). Every allocation here is priced against the
// wire round trip.
func (t *tenant) fetchBatch(ctx context.Context, ep engine.EpochID, indices, positions []int, answers []bool) error {
	//lint:alloc replica-bound path: dedup bookkeeping, priced against the wire round trip
	at := make(map[int]int, len(positions))
	items := make([]int, 0, len(positions)) //lint:alloc replica-bound path: the frame's distinct items
	for _, pos := range positions {
		if _, dup := at[indices[pos]]; !dup {
			at[indices[pos]] = len(items)
			items = append(items, indices[pos])
		}
	}
	fetched, err := t.routerCall(ctx, ep, items)
	if err != nil {
		return err
	}
	if t.g.cache != nil {
		for k, item := range items {
			t.g.cache.put(t.key(ep, item), fetched[k])
		}
	}
	for _, pos := range positions {
		answers[pos] = fetched[at[indices[pos]]]
	}
	return nil
}

// warm preloads the answer cache with the given items under this
// tenant's keys, fetching the not-yet-resident ones in MaxBatch-sized
// frames. Warming bypasses the quota: it is an operator action, not
// tenant traffic.
//
// A chunk that fails does not abort the warm-up: remaining chunks
// still fetch (a mid-warm replica death should cost one batch, not the
// whole warm set), and the partial failure surfaces as a *WarmError
// carrying exact warmed/failed counts instead of being visible only as
// a smaller return count. Context cancellation is the exception — it
// stops the loop immediately, since every later chunk would fail the
// same way. Each warmed batch stamps a gateway.cache_fill span event,
// so a traced warm-up shows its fill pattern chunk by chunk.
func (t *tenant) warm(ctx context.Context, items []int) (int, error) {
	if t.g.cache == nil {
		return 0, fmt.Errorf("gateway: warm: caching is disabled")
	}
	// Warm at the epoch current when the warm-up starts; a rollover
	// mid-warm leaves the tail warming the old (still-pinnable) epoch.
	ep := t.currentEpoch()
	// Dedup and drop already-resident items before spending any RPCs.
	seen := make(map[int]struct{}, len(items))
	missing := make([]int, 0, len(items))
	for _, item := range items {
		if _, dup := seen[item]; dup {
			continue
		}
		seen[item] = struct{}{}
		if _, resident := t.g.cache.get(t.key(ep, item)); resident {
			continue
		}
		missing = append(missing, item)
	}
	warmed, failed, failedChunks := 0, 0, 0
	var firstErr error
	for len(missing) > 0 {
		chunk := missing
		if len(chunk) > t.g.opts.MaxBatch {
			chunk = chunk[:t.g.opts.MaxBatch]
		}
		missing = missing[len(chunk):]
		fetched, err := t.routerCall(ctx, ep, chunk)
		if err != nil {
			failed += len(chunk)
			failedChunks++
			if firstErr == nil {
				firstErr = err
			}
			obs.AddWarnEvent(ctx, "gateway.warm_chunk_failed",
				obs.String("tenant", t.label), obs.Int("batch", int64(len(chunk))),
				obs.String("error", err.Error()))
			if ctx.Err() != nil {
				// The context is dead: every remaining chunk would fail
				// identically. Charge them to the failure count so the
				// error still reports the true shortfall.
				failed += len(missing)
				break
			}
			continue
		}
		for k, item := range chunk {
			t.g.cache.put(t.key(ep, item), fetched[k])
		}
		warmed += len(chunk)
		t.g.counters.warmed.Add(int64(len(chunk)))
		obs.AddEvent(ctx, "gateway.cache_fill",
			obs.String("tenant", t.label), obs.Int("batch", int64(len(chunk))),
			obs.String("source", "warm"))
	}
	if firstErr != nil {
		return warmed, &WarmError{Tenant: t.id, Warmed: warmed, Failed: failed,
			FailedChunks: failedChunks, Err: firstErr}
	}
	return warmed, nil
}

// WarmError reports a partially (or wholly) failed warm-up: how many
// items were fetched and cached, how many were not, and the first
// underlying failure. Callers that only care whether anything failed
// can treat it as an ordinary error; operators get exact counts
// instead of inferring the shortfall from the returned total.
type WarmError struct {
	// Tenant is the warmed namespace.
	Tenant engine.TenantID
	// Warmed and Failed count items; FailedChunks counts batch frames
	// that errored.
	Warmed, Failed, FailedChunks int
	// Err is the first chunk failure, preserved for errors.Is/As (a
	// cancellation mid-warm surfaces here as the context error).
	Err error
}

func (e *WarmError) Error() string {
	return fmt.Sprintf("gateway: warm tenant %s: %d of %d items failed (%d chunks): %v",
		e.Tenant, e.Failed, e.Warmed+e.Failed, e.FailedChunks, e.Err)
}

// Unwrap exposes the first underlying failure.
func (e *WarmError) Unwrap() error { return e.Err }

// metrics snapshots the tenant's counters.
func (t *tenant) metrics() TenantMetrics {
	return TenantMetrics{
		Queries:      t.c.queries.Value(),
		BatchQueries: t.c.batchQueries.Value(),
		CacheHits:    t.c.cacheHits.Value(),
		CacheMisses:  t.c.cacheMisses.Value(),
		QuotaRejects: t.c.quotaRejects.Value(),
		Epoch:        t.epoch.Load(),
		EpochQueries: t.c.epochQueries.Value(),
	}
}
