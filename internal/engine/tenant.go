package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lcakp/internal/obs"
)

// TenantID names one served solution: the instance hash identifies I
// and the seed identifies r, so the pair identifies C(I, r) — the pure
// function every replica answers from (Definition 2.2, Theorem 4.1).
// Two processes holding the same TenantID are interchangeable
// bit-for-bit, which is what makes a tenant a routing key rather than
// an affinity constraint.
type TenantID struct {
	// Instance is the operator-assigned hash of the served instance I.
	Instance uint64
	// Seed is the shared LCA seed r.
	Seed uint64
}

// String renders the ID in the canonical "i<instance>-s<seed>" form
// used as a metrics label value and in log lines.
func (id TenantID) String() string { return fmt.Sprintf("i%d-s%d", id.Instance, id.Seed) }

// TenantState is one resident tenant: its query engine and an optional
// release hook invoked on eviction (close a remote-oracle connection,
// drop a derived rule). Engine must be non-nil.
type TenantState struct {
	// Engine answers the tenant's membership queries.
	Engine *Engine
	// Close, when non-nil, releases the tenant's resources on eviction
	// or table shutdown.
	Close func() error
}

// DefaultTenantBudget is the resident-tenant cap applied when
// NewVersionedTenantTable receives budget <= 0. The Alon et al.
// space-efficient LCA line motivates the bound: per-tenant resident
// state must stay small and bounded, so residency is a cache, not a
// commitment.
const DefaultTenantBudget = 64

// ErrTenantTableClosed is returned by GetEpoch after Close.
var ErrTenantTableClosed = errors.New("engine: tenant table closed")

// tenantEntry is one resident (tenant, epoch) pair. lastUse orders
// entries for eviction via the table's logical clock (monotonic,
// lock-free).
type tenantEntry struct {
	id      VersionedTenant
	state   TenantState
	lastUse atomic.Int64
}

// tenantFlight is one in-progress derivation that concurrent GetEpochs for
// the same tenant join instead of deriving again.
type tenantFlight struct {
	done chan struct{}
	eng  *Engine
	err  error
}

// TenantTableStats is a snapshot of the table's counters.
type TenantTableStats struct {
	// Lookups counts GetEpoch calls; Hits the ones answered from the table.
	Lookups, Hits int64
	// Derivations counts factory runs that succeeded; DeriveErrors the
	// ones that failed.
	Derivations, DeriveErrors int64
	// Evictions counts tenants displaced by the residency budget.
	Evictions int64
	// Resident is the current resident-tenant count.
	Resident int
}

// TenantTable is the tenant-scoped replacement for one-engine-per-
// process serving: a concurrent registry of hot (instance, seed) →
// derived-engine entries with lazy single-flight derivation and LRU
// eviction under a resident-tenant budget.
//
// The hot path (GetEpoch on a resident tenant) is lock-free — one sync.Map
// load plus a handful of atomic adds — because it sits in front of
// every query a multi-tenant replica serves and must not show up next
// to the ~60ns cached-answer path (BenchmarkTenantTableLookup guards
// this). Derivation and eviction take a mutex; both are rare.
//
// Eviction is safe mid-query: an evicted engine keeps answering
// correctly for callers that already hold it (answers are pure
// functions of (I, r); there is no state to invalidate). The Close
// hook may however release the engine's oracle connection, so a query
// racing an eviction can fail — callers retry through GetEpoch, which
// re-derives.
type TenantTable struct {
	factory VersionedTenantFactory
	budget  int

	entries sync.Map // VersionedTenant -> *tenantEntry
	// epochs maps TenantID -> *atomic.Uint64 holding the tenant's
	// current (latest sealed) epoch. Absent means epoch 0. The registry
	// only ever grows by SetCurrentEpoch; stale *epoch state* is bounded
	// by the entries LRU, and the registry itself holds one word per
	// tenant lineage.
	epochs sync.Map
	clock  atomic.Int64
	count  atomic.Int64

	lookups      obs.Counter
	hits         obs.Counter
	derivations  obs.Counter
	deriveErrors obs.Counter
	evictions    obs.Counter
	deriveLat    obs.Histogram

	mu      sync.Mutex
	flights map[VersionedTenant]*tenantFlight
	closed  bool
}

// NewVersionedTenantTable builds a table whose factory sees the full
// (tenant, epoch) key, so sealed epochs of a mutating instance derive
// through the same single-flight, LRU-bounded path as tenants; budget
// caps resident (tenant, epoch) entries (<= 0 selects
// DefaultTenantBudget). A factory that cannot derive some epoch
// returns an error for it, which the lookup surfaces.
func NewVersionedTenantTable(factory VersionedTenantFactory, budget int) *TenantTable {
	if budget <= 0 {
		budget = DefaultTenantBudget
	}
	return &TenantTable{
		factory: factory,
		budget:  budget,
		flights: make(map[VersionedTenant]*tenantFlight),
	}
}

// GetEpoch returns the engine serving one sealed epoch of id, deriving
// it on first use, and reports which epoch was served. EpochCurrent
// resolves to the tenant's current epoch — the resolved value in the
// return is what a replica echoes back on the wire so the client
// learns the consistency key its answer belongs to.
func (t *TenantTable) GetEpoch(ctx context.Context, id TenantID, ep EpochID) (*Engine, EpochID, error) {
	t.lookups.Inc()
	if ep == EpochCurrent {
		ep = t.CurrentEpoch(id)
	}
	vt := VersionedTenant{Tenant: id, Epoch: ep}
	//lint:alloc measured 0 allocs/op (BenchmarkTenantTableLookup): Load does not retain the key, so the box stays on the stack
	if v, ok := t.entries.Load(vt); ok {
		e := v.(*tenantEntry)
		e.lastUse.Store(t.clock.Add(1))
		t.hits.Inc()
		return e.state.Engine, ep, nil
	}
	eng, err := t.derive(ctx, vt)
	return eng, ep, err
}

// CurrentEpoch returns the tenant's latest sealed epoch (0 when the
// tenant has never sealed one).
func (t *TenantTable) CurrentEpoch(id TenantID) EpochID {
	//lint:alloc measured 0 allocs/op (BenchmarkTenantTableLookup): Load does not retain the key, so the box stays on the stack
	if v, ok := t.epochs.Load(id); ok {
		return EpochID(v.(*atomic.Uint64).Load())
	}
	return 0
}

// SetCurrentEpoch advances the tenant's current epoch. Queries already
// pinned to an older epoch keep resolving against it (stale epochs age
// out through the LRU like any cold tenant); only EpochCurrent
// requests move. Regressions are refused: sealing is monotone.
func (t *TenantTable) SetCurrentEpoch(id TenantID, ep EpochID) error {
	if ep == EpochCurrent {
		return fmt.Errorf("engine: tenant %s: cannot set sentinel epoch", id)
	}
	v, _ := t.epochs.LoadOrStore(id, new(atomic.Uint64))
	cur := v.(*atomic.Uint64)
	for {
		old := cur.Load()
		if EpochID(old) > ep {
			return fmt.Errorf("engine: tenant %s: epoch regression %d -> %d", id, old, uint64(ep))
		}
		if cur.CompareAndSwap(old, uint64(ep)) {
			return nil
		}
	}
}

// Peek returns the engine serving id's current epoch only if it is
// already resident; it never derives and does not refresh recency.
func (t *TenantTable) Peek(id TenantID) (*Engine, bool) {
	return t.PeekVersioned(VersionedTenant{Tenant: id, Epoch: t.CurrentEpoch(id)})
}

// PeekVersioned is Peek for an explicit (tenant, epoch) key.
func (t *TenantTable) PeekVersioned(vt VersionedTenant) (*Engine, bool) {
	if v, ok := t.entries.Load(vt); ok {
		return v.(*tenantEntry).state.Engine, true
	}
	return nil, false
}

// derive is the slow path: join an in-flight derivation or lead one.
//
//lint:coldpath tenant derivation runs once per residency and is priced by Theorem 4.1 preprocessing, not the per-query budget
func (t *TenantTable) derive(ctx context.Context, id VersionedTenant) (*Engine, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrTenantTableClosed
	}
	// Re-check residency under the lock: another GetEpoch may have installed
	// the entry between our sync.Map miss and here.
	if v, ok := t.entries.Load(id); ok {
		e := v.(*tenantEntry)
		e.lastUse.Store(t.clock.Add(1))
		t.hits.Inc()
		t.mu.Unlock()
		return e.state.Engine, nil
	}
	if fl, ok := t.flights[id]; ok {
		t.mu.Unlock()
		select {
		case <-fl.done:
			return fl.eng, fl.err
		case <-ctx.Done():
			return nil, fmt.Errorf("engine: tenant %s derivation wait: %w", id, ctx.Err())
		}
	}
	fl := &tenantFlight{done: make(chan struct{})}
	t.flights[id] = fl
	t.mu.Unlock()

	start := time.Now()
	state, err := t.factory(ctx, id)
	if err == nil && state.Engine == nil {
		err = fmt.Errorf("engine: tenant %s factory returned nil engine", id)
	}
	deriveWall := time.Since(start)
	t.deriveLat.Observe(deriveWall)
	// A derivation inside a traced query is the Theorem 4.1
	// preprocessing cost made visible: the query that triggered it pays
	// the latency, and its trace should say so.
	obs.AddEvent(ctx, "engine.tenant_derive",
		obs.String("tenant", id.String()), obs.String("wall", deriveWall.String()))

	var evicted []*tenantEntry
	t.mu.Lock()
	delete(t.flights, id)
	if err == nil && t.closed {
		err = ErrTenantTableClosed
	}
	if err != nil {
		t.deriveErrors.Inc()
		fl.err = err
		if state.Close != nil {
			_ = state.Close()
		}
	} else {
		e := &tenantEntry{id: id, state: state}
		e.lastUse.Store(t.clock.Add(1))
		t.entries.Store(id, e)
		t.count.Add(1)
		t.derivations.Inc()
		fl.eng = state.Engine
		evicted = t.evictOverBudgetLocked()
	}
	t.mu.Unlock()
	close(fl.done)

	for _, e := range evicted {
		if e.state.Close != nil {
			_ = e.state.Close()
		}
	}
	return fl.eng, fl.err
}

// evictOverBudgetLocked displaces least-recently-used tenants until
// the budget holds; t.mu must be held. Returned entries still need
// their Close hooks run (outside the lock — hooks may block on I/O).
func (t *TenantTable) evictOverBudgetLocked() []*tenantEntry {
	var evicted []*tenantEntry
	for t.count.Load() > int64(t.budget) {
		var victim *tenantEntry
		t.entries.Range(func(_, v any) bool {
			e := v.(*tenantEntry)
			if victim == nil || e.lastUse.Load() < victim.lastUse.Load() {
				victim = e
			}
			return true
		})
		if victim == nil {
			break
		}
		t.entries.Delete(victim.id)
		t.count.Add(-1)
		t.evictions.Inc()
		evicted = append(evicted, victim)
	}
	return evicted
}

// Totals returns the cumulative engine metrics of a resident tenant.
func (t *TenantTable) Totals(id TenantID) (Totals, bool) {
	eng, ok := t.Peek(id)
	if !ok {
		return Totals{}, false
	}
	return eng.Totals(), true
}

// Stats returns a snapshot of the table's counters.
func (t *TenantTable) Stats() TenantTableStats {
	return TenantTableStats{
		Lookups:      t.lookups.Value(),
		Hits:         t.hits.Value(),
		Derivations:  t.derivations.Value(),
		DeriveErrors: t.deriveErrors.Value(),
		Evictions:    t.evictions.Value(),
		Resident:     int(t.count.Load()),
	}
}

// Close evicts every resident tenant (running the Close hooks) and
// fails all subsequent GetEpochs. It is idempotent.
func (t *TenantTable) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	var entries []*tenantEntry
	t.entries.Range(func(k, v any) bool {
		entries = append(entries, v.(*tenantEntry))
		t.entries.Delete(k)
		return true
	})
	t.count.Store(0)
	t.mu.Unlock()

	var firstErr error
	for _, e := range entries {
		if e.state.Close != nil {
			if err := e.state.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// RegisterMetrics exposes the table's own counters on reg under the
// given prefix (e.g. "lcakp_tenant_table" yields
// lcakp_tenant_table_lookups_total, ..., plus a resident gauge).
func (t *TenantTable) RegisterMetrics(reg *obs.Registry, prefix string) error {
	for _, m := range []struct {
		suffix, help string
		metric       obs.Metric
	}{
		{"_lookups_total", "tenant lookups", &t.lookups},
		{"_hits_total", "lookups answered from the resident table", &t.hits},
		{"_derivations_total", "tenant derivations run", &t.derivations},
		{"_derive_errors_total", "tenant derivations failed", &t.deriveErrors},
		{"_evictions_total", "tenants displaced by the residency budget", &t.evictions},
		{"_derive_latency_seconds", "tenant derivation latency", &t.deriveLat},
		{"_resident", "currently resident tenants",
			obs.GaugeFunc(func() float64 { return float64(t.count.Load()) })},
	} {
		if err := reg.Register(prefix+m.suffix, m.help, m.metric); err != nil {
			return fmt.Errorf("engine: register tenant table metrics: %w", err)
		}
	}
	return nil
}
