// Package lcakp is the public API of the reproduction of "Local
// Computation Algorithms for Knapsack: impossibility results, and how
// to avoid them" (Canonne, Li, Umboh; PODC 2025).
//
// The package re-exports the stable surface of the internal modules:
//
//   - Knapsack domain types and classical solvers (internal/knapsack),
//   - the oracle access models — point queries and profit-weighted
//     sampling (internal/oracle),
//   - the LCA itself, LCA-KP (internal/core),
//   - reproducible quantile estimators (internal/repro), and
//   - the distributed serving layer (internal/cluster).
//
// A minimal use looks like:
//
//	norm, _ := inst.Normalized()              // total profit & weight = 1
//	access, _ := lcakp.NewSliceOracle(norm)   // oracle access
//	lca, _ := lcakp.NewLCAKP(access, lcakp.Params{Epsilon: 0.1, Seed: 7})
//	in, _ := lca.Query(ctx, 42)               // stateless membership query
//
// Every query method takes a context.Context: cancel it (or give it a
// deadline) and the sampling pipeline aborts within one sample frame
// call (at most 4,096 draws) with a wrapped ctx.Err(). Oracle
// instrumentation — counting and per-query metrics — composes via the
// engine middleware chain (internal/engine, re-exported here as
// Middleware, NewCounting, WrapAccess, NewEngine).
//
// Every run of Query re-executes the paper's Algorithm 2 from fresh
// samples; consistency across runs — and across machines — comes only
// from the shared Seed and the reproducibility of the quantile
// estimation (Lemma 4.9). See DESIGN.md for the system map and
// EXPERIMENTS.md for the measured reproduction of each claim.
package lcakp

import (
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/gateway"
	"lcakp/internal/knapsack"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/repro"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// Knapsack domain types.
type (
	// Item is a Knapsack item (profit, weight).
	Item = knapsack.Item
	// Instance is a Knapsack instance (items + capacity).
	Instance = knapsack.Instance
	// IntInstance is the integer form used for exact DP.
	IntInstance = knapsack.IntInstance
	// IntItem is an integer Knapsack item.
	IntItem = knapsack.IntItem
	// Solution is a set of chosen item indices.
	Solution = knapsack.Solution
	// Result bundles a solution with its profit and weight.
	Result = knapsack.Result
)

// LCA types.
type (
	// Params configures LCA-KP (epsilon, seed, estimator, samples).
	Params = core.Params
	// LCAKP is the paper's LCA for Knapsack (Algorithm 2).
	LCAKP = core.LCAKP
	// Rule is the local decision rule of one run (Algorithm 3 output).
	Rule = core.Rule
)

// Oracle access types.
type (
	// Oracle is point-query access to an instance.
	Oracle = oracle.Oracle
	// Sampler is profit-weighted sampling access. SampleFrame is its one
	// sampling implementation; Sample is a one-draw frame.
	Sampler = oracle.Sampler
	// Draw is one weighted sample: the drawn index and its item.
	// SampleFrame fills a slice of them.
	Draw = oracle.Draw
	// Source is the randomness a sampler draws from.
	Source = rng.Source
	// Access bundles both access types. With Draw and Source, a type
	// outside this module can implement it.
	Access = oracle.Access
	// SliceOracle is in-memory access over an Instance.
	SliceOracle = oracle.SliceOracle
)

// Engine and middleware types (oracle instrumentation).
type (
	// Middleware wraps oracle access with cross-cutting behavior.
	Middleware = engine.Middleware
	// Counting wraps Access with query/sample counters.
	Counting = engine.Counting
	// Engine runs membership queries with per-query metrics.
	Engine = engine.Engine
	// Metrics is one query's cost/outcome record.
	Metrics = engine.Metrics
	// EngineTotals is an engine's cumulative metrics snapshot.
	EngineTotals = engine.Totals
)

// Workload generation types.
type (
	// WorkloadSpec parameterizes instance generation.
	WorkloadSpec = workload.Spec
	// GeneratedWorkload bundles integer and normalized instances.
	GeneratedWorkload = workload.Generated
)

// Distributed serving types.
type (
	// InstanceServer serves oracle access over TCP.
	InstanceServer = cluster.InstanceServer
	// LCAClient queries a remote replica.
	LCAClient = cluster.LCAClient
	// RemoteAccess is oracle.Access backed by a remote InstanceServer.
	RemoteAccess = cluster.RemoteAccess
	// Fleet is an in-process replica fleet for consistency checks.
	Fleet = cluster.Fleet
	// Backend answers membership queries behind a QueryServer; both an
	// LCA replica and a Gateway implement it.
	Backend = cluster.Backend
	// QueryServer serves the membership wire protocol over any Backend.
	QueryServer = cluster.QueryServer
)

// Multi-tenant serving types (internal/engine + internal/cluster): one
// process serving many (instance, seed) pairs. A TenantID names one
// solution C(I, r), and a VersionedTenant one epoch of it; a
// TenantTable lazily derives and caches the engine for each served
// (tenant, epoch); a MultiLCAServer routes wire frames — each naming a
// tenant, or none for the default tenant, and an epoch — to the table.
type (
	// TenantID names one solution C(I, r) = (instance identity, seed).
	TenantID = engine.TenantID
	// VersionedTenant names one epoch of a tenant: the consistency key.
	VersionedTenant = engine.VersionedTenant
	// TenantTable is a bounded, concurrent table of per-tenant engines.
	TenantTable = engine.TenantTable
	// TenantState is one tenant's engine plus its teardown hook.
	TenantState = engine.TenantState
	// VersionedTenantFactory derives the state for a (tenant, epoch)
	// on first use.
	VersionedTenantFactory = engine.VersionedTenantFactory
	// MultiLCAServer serves many tenants' engines on one address.
	MultiLCAServer = cluster.MultiLCAServer
)

// Serving-gateway types (internal/gateway): a consistency-preserving
// front door over a replica fleet, with pooling, failover, hedging,
// and a deterministic answer cache. All of it
// is safe because answers are pure functions of (instance, seed) —
// Definition 2.2 and Theorem 4.1 — so any replica, any retry, and any
// cached copy yields the same bit.
type (
	// Gateway fronts a replica fleet behind a single Backend surface.
	Gateway = gateway.Gateway
	// GatewayOptions configures a Gateway.
	GatewayOptions = gateway.Options
	// GatewayMetrics is a snapshot of a gateway's serving counters.
	GatewayMetrics = gateway.Metrics
	// GatewayTenantOptions configures one explicitly served gateway
	// tenant (its TenantID plus an optional admission quota).
	GatewayTenantOptions = gateway.TenantOptions
	// GatewayTenantMetrics is one tenant's slice of the gateway counters.
	GatewayTenantMetrics = gateway.TenantMetrics
	// Authorizer maps API keys to the tenants they may query.
	Authorizer = gateway.Authorizer
)

// Observability types (internal/obs): a dependency-free metrics
// registry with Prometheus-text exposition, and trace propagation.
// Servers accept a Registry via SetRegistry (scrapable over the wire
// with LCAClient.ScrapeMetrics and over HTTP via Registry.Handler);
// engines and gateways attach a Tracer to follow one query across the
// gateway→replica hop. All of it is operational-only: no metric or
// span can influence an answer bit.
type (
	// MetricsRegistry is a named collection of counters, gauges, and
	// latency histograms with a deterministic Prometheus exposition.
	MetricsRegistry = obs.Registry
	// Tracer mints trace/span IDs and records finished spans.
	Tracer = obs.Tracer
	// SpanRecorder is a fixed-size ring of finished spans.
	SpanRecorder = obs.SpanRecorder
	// Span is one traced operation; Span.Event annotates it with
	// timestamped, probe-stamped decision points (hedges, failovers)
	// and Span.AddProbes charges its Definition 2.2 cost ledger.
	Span = obs.Span
	// SpanEvent is one timestamped annotation on a span.
	SpanEvent = obs.Event
	// SlowTraceLog force-retains the complete span trees of queries
	// that crossed a latency threshold or recorded a warn-level event —
	// tail-based capture, decided after the outcome is known.
	SlowTraceLog = obs.SlowTraceLog
	// SlowTrace is one force-retained trace (span tree + capture reason).
	SlowTrace = obs.SlowTrace
)

// Reproducible statistics types.
type (
	// QuantileEstimator is the reproducible-quantile interface.
	QuantileEstimator = repro.Estimator
	// QuantileSample is what a QuantileEstimator reads: a sample in
	// draw order and its empirical CDF, built once per sample.
	QuantileSample = repro.ECDF
	// TrieQuantile is the provably reproducible estimator.
	TrieQuantile = repro.Trie
	// NaiveQuantile is the non-reproducible ablation baseline.
	NaiveQuantile = repro.Naive
)

// NewInstance constructs and validates a Knapsack instance.
func NewInstance(items []Item, capacity float64) (*Instance, error) {
	return knapsack.NewInstance(items, capacity)
}

// NewSliceOracle wraps a (normalized) instance with point-query and
// weighted-sampling access.
func NewSliceOracle(inst *Instance) (*SliceOracle, error) {
	return oracle.NewSliceOracle(inst)
}

// NewCounting wraps access with query/sample counters.
func NewCounting(inner Access) *Counting { return engine.NewCounting(inner) }

// NewEngine wraps an LCA (or anything with Query/QueryBatch) with
// per-query metrics recording.
func NewEngine(q engine.Querier) *Engine { return engine.New(q) }

// WrapAccess composes middlewares over access, innermost last, with the
// engine's per-query instrumentation installed at the bottom.
func WrapAccess(access Access, mws ...Middleware) Access {
	return engine.Wrap(access, mws...)
}

// NewLCAKP builds the LCA over the given access. The instance behind
// the access must be normalized (Instance.Normalized) and every item
// weight must be at most the capacity.
func NewLCAKP(access Access, params Params) (*LCAKP, error) {
	return core.NewLCAKP(access, params)
}

// GenerateWorkload builds a named benchmark instance family; see
// WorkloadNames for the registry.
func GenerateWorkload(spec WorkloadSpec) (*GeneratedWorkload, error) {
	return workload.Generate(spec)
}

// WorkloadNames lists the registered workload families.
func WorkloadNames() []string { return workload.Names() }

// Greedy runs the efficiency-greedy heuristic.
func Greedy(in *Instance) Result { return knapsack.Greedy(in) }

// Half runs the classic 1/2-approximation.
func Half(in *Instance) Result { return knapsack.Half(in) }

// Fractional solves the fractional relaxation exactly.
func Fractional(in *Instance) knapsack.FractionalResult { return knapsack.Fractional(in) }

// Exhaustive solves tiny instances (≤ 25 items) exactly.
func Exhaustive(in *Instance) (Result, error) { return knapsack.Exhaustive(in) }

// MeetInTheMiddle solves up to ~44 items exactly (Horowitz–Sahni).
func MeetInTheMiddle(in *Instance) (Result, error) { return knapsack.MeetInTheMiddle(in) }

// BranchAndBound solves float instances exactly with fractional-bound
// pruning; maxNodes caps the search (0 selects the default).
func BranchAndBound(in *Instance, maxNodes int) (Result, error) {
	return knapsack.BranchAndBound(in, maxNodes)
}

// DPByWeight solves integer instances exactly (weight-indexed DP).
func DPByWeight(in *IntInstance) (Result, error) { return knapsack.DPByWeight(in) }

// DPByProfit solves integer instances exactly (profit-indexed DP).
func DPByProfit(in *IntInstance) (Result, error) { return knapsack.DPByProfit(in) }

// FPTAS runs the (1-eps)-approximation scheme.
func FPTAS(in *Instance, eps float64) (Result, error) { return knapsack.FPTAS(in, eps) }

// NewInstanceServer serves oracle access on a TCP address.
func NewInstanceServer(addr string, access Access) (*InstanceServer, error) {
	return cluster.NewInstanceServer(addr, access)
}

// NewLCAServer serves an LCA replica as tenant id on a TCP address:
// frames naming id, and untenanted frames, reach it. Queries run
// through an Engine so the server records per-query Metrics; build the
// LCA over WrapAccess'd access for access counts to appear in them.
func NewLCAServer(addr string, id TenantID, lca *LCAKP) (*MultiLCAServer, error) {
	return cluster.NewLCAServer(addr, id, engine.New(lca))
}

// DialInstance connects to an instance server, yielding oracle access;
// timeout 0 selects the default, batch 0 the default batch size: the
// unit a sampling stream's draws are laid out in and the largest sample
// request, not a prefetch (a frame opens a batch with only the draws
// it needs).
func DialInstance(addr string, timeout time.Duration, batch int) (*RemoteAccess, error) {
	return cluster.DialInstance(addr, timeout, batch)
}

// DialLCA connects to a replica server; timeout 0 selects the default.
func DialLCA(addr string, timeout time.Duration) (*LCAClient, error) {
	return cluster.DialLCA(addr, timeout)
}

// NewFleet starts an in-process instance server plus k replica servers
// and clients, all on loopback ephemeral ports.
func NewFleet(access Access, k int, params Params) (*Fleet, error) {
	return cluster.NewFleet(access, k, params)
}

// NewVersionedTenantTable builds a bounded table of per-(tenant,
// epoch) engines; the factory derives each one's state on first query
// (single-flight), and least-recently-used entries are evicted once
// budget is exceeded (budget <= 0 selects the default).
func NewVersionedTenantTable(factory VersionedTenantFactory, budget int) *TenantTable {
	return engine.NewVersionedTenantTable(factory, budget)
}

// NewMultiLCAServer serves a tenant table on a TCP address: wire
// frames carrying a tenant ID route to that tenant's engine at the
// frame's epoch, and untagged frames go to the default tenant when one
// is set (MultiLCAServer.SetDefaultTenant).
func NewMultiLCAServer(addr string, table *TenantTable) (*MultiLCAServer, error) {
	return cluster.NewMultiLCAServer(addr, table)
}

// LoadAPIKeys reads a key file ("<key> <instance>:<seed>..." per line,
// "*" granting all tenants) into an Authorizer for GatewayOptions.Auth.
func LoadAPIKeys(path string) (*Authorizer, error) {
	return gateway.LoadAPIKeys(path)
}

// NewGateway builds a serving gateway over a replica fleet; see
// GatewayOptions for the pooling, failover, hedging, and cache knobs.
func NewGateway(opts GatewayOptions) (*Gateway, error) {
	return gateway.New(opts)
}

// NewQueryServer serves the membership wire protocol on addr over any
// Backend — mount a Gateway here and unmodified LCAClients cannot tell
// it from a replica.
func NewQueryServer(addr string, backend Backend) (*QueryServer, error) {
	return cluster.NewQueryServer(addr, backend)
}

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer builds a tracer retaining the last capacity finished spans.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewSlowTraceLog builds a tail-based capture ring retaining the last
// capacity slow traces (0 selects the default); attach it with
// Tracer.SetSlowLog. threshold <= 0 captures only on warn events.
func NewSlowTraceLog(capacity int, threshold time.Duration) *SlowTraceLog {
	return obs.NewSlowTraceLog(capacity, threshold)
}
