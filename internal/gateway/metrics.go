package gateway

import (
	"fmt"

	"lcakp/internal/obs"
)

// Metrics is a snapshot of a Gateway's cumulative serving counters, in
// the style of engine.Totals: monotonic counts an operator reads to
// judge cache efficiency, hedging value, and failover activity.
type Metrics struct {
	// Queries counts point queries accepted (InSolution calls).
	Queries int64
	// BatchQueries counts batch queries accepted (a batch counts once).
	BatchQueries int64
	// CacheHits and CacheMisses split cache lookups. Batch queries
	// contribute one lookup per index.
	CacheHits, CacheMisses int64
	// FlightsShared counts queries answered by joining another query's
	// in-flight computation (single-flight dedup).
	FlightsShared int64
	// Attempts counts replica RPC attempts (first tries and retries).
	Attempts int64
	// Retries counts re-sends after a failed attempt.
	Retries int64
	// Failovers counts retries that switched to a different replica.
	Failovers int64
	// Hedges counts secondary RPCs fired after the hedge delay;
	// HedgeWins counts hedges whose answer arrived first.
	Hedges, HedgeWins int64
	// Reconnects counts replica transitions from unhealthy back to
	// healthy.
	Reconnects int64
	// Errors counts queries that exhausted every attempt and surfaced
	// an error to the caller.
	Errors int64
	// Warmed counts answers made servable ahead of traffic: cache
	// entries Warm fetched, and the items of the artifacts
	// WarmFromStore installed.
	Warmed int64
	// StoreServes counts queries (batch positions included) answered
	// from the materialized artifact tier — a tenant's installed
	// artifact or the local store, including artifacts pulled from
	// peers — instead of the replica fleet.
	StoreServes int64
	// PeerFills counts whole artifacts pulled from owning peers and
	// persisted in the local store; PeerFillErrors counts pulls that
	// failed (queries fall back to replica fetch).
	PeerFills, PeerFillErrors int64
	// ArtifactsServed counts MsgStoreFetch requests this gateway
	// answered for its peers.
	ArtifactsServed int64
	// QuotaRejects counts queries rejected at admission by a tenant's
	// token bucket (across all tenants; see TenantMetrics for the
	// per-tenant split).
	QuotaRejects int64
	// AuthRejects counts wire frames rejected by the Authorizer.
	AuthRejects int64
	// BreakerTrips counts replica circuit-breaker transitions to open
	// (first trips and failed half-open probes alike).
	BreakerTrips int64
}

// CacheHitRate returns hits / (hits + misses), 0 when no lookups
// happened yet.
func (m Metrics) CacheHitRate() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// counters is the atomic backing for Metrics, shared by the pool,
// router, and cache. The fields are obs metrics so
// RegisterMetrics can expose the live counters directly — Metrics
// snapshots and scrapes read the same atomics and can never disagree.
type counters struct {
	queries       obs.Counter
	batchQueries  obs.Counter
	cacheHits     obs.Counter
	cacheMisses   obs.Counter
	flightsShared obs.Counter
	attempts      obs.Counter
	retries       obs.Counter
	failovers     obs.Counter
	hedges        obs.Counter
	hedgeWins     obs.Counter
	reconnects    obs.Counter
	errorsN       obs.Counter
	warmed        obs.Counter
	quotaRejects  obs.Counter
	authRejects   obs.Counter
	breakerTrips  obs.Counter

	storeServes     obs.Counter
	peerFills       obs.Counter
	peerFillErrors  obs.Counter
	artifactsServed obs.Counter
}

// snapshot reads the counters into a Metrics value.
func (c *counters) snapshot() Metrics {
	return Metrics{
		Queries:       c.queries.Value(),
		BatchQueries:  c.batchQueries.Value(),
		CacheHits:     c.cacheHits.Value(),
		CacheMisses:   c.cacheMisses.Value(),
		FlightsShared: c.flightsShared.Value(),
		Attempts:      c.attempts.Value(),
		Retries:       c.retries.Value(),
		Failovers:     c.failovers.Value(),
		Hedges:        c.hedges.Value(),
		HedgeWins:     c.hedgeWins.Value(),
		Reconnects:    c.reconnects.Value(),
		Errors:        c.errorsN.Value(),
		Warmed:        c.warmed.Value(),
		QuotaRejects:  c.quotaRejects.Value(),
		AuthRejects:   c.authRejects.Value(),
		BreakerTrips:  c.breakerTrips.Value(),

		StoreServes:     c.storeServes.Value(),
		PeerFills:       c.peerFills.Value(),
		PeerFillErrors:  c.peerFillErrors.Value(),
		ArtifactsServed: c.artifactsServed.Value(),
	}
}

// RegisterMetrics exposes the gateway's live serving counters, latency
// distributions, and healthy-replica gauge on reg under lcakp_gateway_*
// names.
func (g *Gateway) RegisterMetrics(reg *obs.Registry) error {
	c := &g.counters
	for _, m := range []struct {
		name, help string
		metric     obs.Metric
	}{
		{"lcakp_gateway_queries_total", "point membership queries accepted", &c.queries},
		{"lcakp_gateway_batch_queries_total", "batch membership queries accepted", &c.batchQueries},
		{"lcakp_gateway_cache_hits_total", "answer-cache hits", &c.cacheHits},
		{"lcakp_gateway_cache_misses_total", "answer-cache misses", &c.cacheMisses},
		{"lcakp_gateway_flights_shared_total", "queries answered by a shared in-flight fetch", &c.flightsShared},
		{"lcakp_gateway_attempts_total", "replica RPC attempts", &c.attempts},
		{"lcakp_gateway_retries_total", "RPC re-sends after a failed attempt", &c.retries},
		{"lcakp_gateway_failovers_total", "retries that switched replica", &c.failovers},
		{"lcakp_gateway_hedges_total", "hedged duplicate RPCs fired", &c.hedges},
		{"lcakp_gateway_hedge_wins_total", "hedges whose answer arrived first", &c.hedgeWins},
		{"lcakp_gateway_reconnects_total", "replica unhealthy-to-healthy transitions", &c.reconnects},
		{"lcakp_gateway_query_errors_total", "queries that exhausted every attempt", &c.errorsN},
		{"lcakp_gateway_warmed_total", "answers made servable ahead of traffic by Warm and WarmFromStore", &c.warmed},
		{"lcakp_gateway_quota_rejects_total", "queries rejected by tenant quotas", &c.quotaRejects},
		{"lcakp_gateway_auth_rejects_total", "wire frames rejected by the authorizer", &c.authRejects},
		{"lcakp_gateway_breaker_trips_total", "replica circuit-breaker transitions to open", &c.breakerTrips},
		{"lcakp_gateway_store_serves_total", "queries answered from the artifact tier", &c.storeServes},
		{"lcakp_gateway_peer_fills_total", "whole artifacts pulled from owning peers and persisted locally", &c.peerFills},
		{"lcakp_gateway_peer_fill_errors_total", "peer artifact pulls that failed", &c.peerFillErrors},
		{"lcakp_gateway_artifacts_served_total", "MsgStoreFetch requests answered for peers", &c.artifactsServed},
		{"lcakp_gateway_query_latency_seconds", "point-query fetch latency (cache misses; hits are not clock-sampled)", &g.lat},
		{"lcakp_gateway_rpc_latency_seconds", "successful replica RPC latency", &g.rpcLat},
		{"lcakp_gateway_healthy_replicas", "replicas currently passing health checks",
			obs.GaugeFunc(func() float64 { return float64(len(g.pool.healthySnapshot())) })},
	} {
		if err := reg.Register(m.name, m.help, m.metric); err != nil {
			return fmt.Errorf("gateway: register metrics: %w", err)
		}
	}

	// Breaker state per replica: 0 closed, 1 half-open, 2 open. The
	// label set is the fleet, fixed at New — bounded by construction.
	breakerVec := obs.NewGaugeVec("replica", len(g.pool.members)+1)
	for _, m := range g.pool.members {
		brk := m.brk
		if err := breakerVec.AttachFunc(m.addr, obs.GaugeFunc(func() float64 {
			return float64(brk.current())
		})); err != nil {
			return fmt.Errorf("gateway: register metrics: %w", err)
		}
	}
	if err := reg.Register("lcakp_gateway_breaker_state",
		"replica circuit-breaker state (0 closed, 1 half-open, 2 open)", breakerVec); err != nil {
		return fmt.Errorf("gateway: register metrics: %w", err)
	}

	// Per-tenant serving counters. The label set is the configured
	// tenant table, fixed at New — bounded by construction.
	for _, tv := range []struct {
		name, help string
		value      func(*tenant) *obs.Counter
	}{
		{"lcakp_gateway_tenant_queries_total", "point queries accepted, per tenant",
			func(t *tenant) *obs.Counter { return &t.c.queries }},
		{"lcakp_gateway_tenant_batch_queries_total", "batch queries accepted, per tenant",
			func(t *tenant) *obs.Counter { return &t.c.batchQueries }},
		{"lcakp_gateway_tenant_cache_hits_total", "answer-cache hits, per tenant",
			func(t *tenant) *obs.Counter { return &t.c.cacheHits }},
		{"lcakp_gateway_tenant_cache_misses_total", "answer-cache misses, per tenant",
			func(t *tenant) *obs.Counter { return &t.c.cacheMisses }},
		{"lcakp_gateway_tenant_quota_rejects_total", "quota-rejected queries, per tenant",
			func(t *tenant) *obs.Counter { return &t.c.quotaRejects }},
		{"lcakp_gateway_tenant_epoch_queries_total", "queries served at sealed (non-zero) epochs, per tenant",
			func(t *tenant) *obs.Counter { return &t.c.epochQueries }},
	} {
		vec := obs.NewCounterVec("tenant", len(g.tenants)+1)
		for id, t := range g.tenants {
			counter := tv.value(t)
			if err := vec.AttachFunc(id.String(), obs.CounterFunc(counter.Value)); err != nil {
				return fmt.Errorf("gateway: register metrics: %w", err)
			}
		}
		if err := reg.Register(tv.name, tv.help, vec); err != nil {
			return fmt.Errorf("gateway: register metrics: %w", err)
		}
	}

	// Per-tenant current epoch: a gauge, not a counter — quota and
	// accounting stay epoch-scoped without an unbounded per-epoch label
	// set (the epoch axis is the gauge's value, not a label).
	epochVec := obs.NewGaugeVec("tenant", len(g.tenants)+1)
	for id, t := range g.tenants {
		t := t
		if err := epochVec.AttachFunc(id.String(), obs.GaugeFunc(func() float64 {
			return float64(t.epoch.Load())
		})); err != nil {
			return fmt.Errorf("gateway: register metrics: %w", err)
		}
	}
	if err := reg.Register("lcakp_gateway_tenant_epoch",
		"current serving epoch per tenant (0 = pre-churn)", epochVec); err != nil {
		return fmt.Errorf("gateway: register metrics: %w", err)
	}

	// The mounted artifact store's own counters ride the same registry.
	if g.opts.Store != nil {
		if err := g.opts.Store.RegisterMetrics(reg, "lcakp_store"); err != nil {
			return fmt.Errorf("gateway: register metrics: %w", err)
		}
	}
	return nil
}
