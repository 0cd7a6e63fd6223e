package epoch

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/store"
)

// DefaultRetain is the number of sealed epochs a Manager keeps
// resident when NewManager receives retain <= 0: enough for in-flight
// pinned queries to drain across a rollover without re-derivation.
const DefaultRetain = 4

// Snapshot is one sealed epoch: the instance I_e and the rule
// materialized from (I_e, r) through the canonical §12 randomness —
// the exact same bytes-level derivation the artifact store pins, so a
// snapshot, a store artifact, and a remote replica at the same epoch
// can never disagree. It keeps no LCA: nothing reads the one over I_e,
// or its alias table, once the rule is derived.
type Snapshot struct {
	// Epoch identifies the version.
	Epoch engine.EpochID
	// Instance is I_e. Instances are read-only once built: epoch 0's
	// is the caller's base itself, and Apply copies before it writes.
	Instance *knapsack.Instance
	// Rule is the materialized decision rule for (I_e, r).
	Rule core.Rule
	// Log holds the mutations sealed into this epoch (empty for 0).
	Log []Mutation
	// SealWall is the wall-clock cost of deriving this epoch's rule —
	// the re-derivation price the churn experiment measures.
	SealWall time.Duration
}

// Manager accumulates mutations for one tenant and seals them into
// successive epochs. Sealing epoch e+1 applies the pending log to I_e
// and re-derives the rule from (I_{e+1}, r) via store.MaterializeRule
// — the canonical materialization randomness of DESIGN.md §12 — so
// every process sealing the same log over the same base reaches a
// bit-identical rule, and the w.h.p. consistency of Lemma 4.9 is
// replaced by exact consistency within each epoch.
type Manager struct {
	tenant engine.TenantID
	params core.Params
	retain int

	mu      sync.Mutex
	current engine.EpochID
	snaps   map[engine.EpochID]*Snapshot
	pending []Mutation
	sealing bool
}

// NewManager builds a manager whose epoch 0 is base. It keeps base
// itself, not a copy: instances are read-only once built, so managers
// over one catalog share its items, and neither the manager nor the
// caller may write them. Epoch 0's oracle is oracle.NewSliceOracle's:
// while any oracle over base lives (an instance server's, another
// tenant's booting at once) the derivation draws from base's one alias
// table instead of building its own, so a tenant's boot costs its
// rule's derivation, not a re-index of the catalog. retain caps the
// sealed epochs kept resident (<= 0 selects DefaultRetain); older
// snapshots are pruned oldest-first, like the TenantTable's LRU. ctx
// bounds the epoch-0 rule derivation.
func NewManager(ctx context.Context, tenant engine.TenantID, base *knapsack.Instance, params core.Params, retain int) (*Manager, error) {
	if retain <= 0 {
		retain = DefaultRetain
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("epoch: base instance: %w", err)
	}
	m := &Manager{
		tenant: tenant,
		params: params,
		retain: retain,
		snaps:  make(map[engine.EpochID]*Snapshot),
	}
	access, err := oracle.NewSliceOracle(base)
	if err != nil {
		return nil, fmt.Errorf("epoch: %s epoch 0 oracle: %w", tenant, err)
	}
	snap, err := m.deriveSnapshot(ctx, 0, access, base, nil)
	if err != nil {
		return nil, err
	}
	m.snaps[0] = snap
	return m, nil
}

// deriveSnapshot builds the Snapshot for one instance version: LCA
// over access, an oracle over inst, and the rule via the canonical
// materialization stream.
func (m *Manager) deriveSnapshot(ctx context.Context, ep engine.EpochID, access *oracle.SliceOracle, inst *knapsack.Instance, log []Mutation) (*Snapshot, error) {
	lca, err := core.NewLCAKP(access, m.params)
	if err != nil {
		return nil, fmt.Errorf("epoch: %s epoch %d lca: %w", m.tenant, uint64(ep), err)
	}
	start := time.Now()
	rule, err := store.MaterializeRule(ctx, lca)
	if err != nil {
		return nil, fmt.Errorf("epoch: %s epoch %d rule: %w", m.tenant, uint64(ep), err)
	}
	return &Snapshot{
		Epoch:    ep,
		Instance: inst,
		Rule:     rule,
		Log:      log,
		SealWall: time.Since(start),
	}, nil
}

// Current returns the latest sealed epoch.
func (m *Manager) Current() engine.EpochID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current
}

// Stage validates and appends one mutation to the pending log. Adds
// may leave Index zero: Stage assigns the slot they will land at.
func (m *Manager) Stage(mut Mutation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.snaps[m.current]
	nextLen := cur.Instance.N()
	for _, p := range m.pending {
		if p.Op == OpAdd {
			nextLen++
		}
	}
	if mut.Op == OpAdd && mut.Index == 0 {
		mut.Index = uint32(nextLen)
	}
	if mut.Op == OpRemove {
		// Canonicalize: the tombstone fields are implied.
		mut.Profit, mut.Weight = 0, 0
	}
	if err := mut.validate(nextLen); err != nil {
		return err
	}
	m.pending = append(m.pending, mut)
	return nil
}

// StageAll stages a batch, stopping at the first invalid mutation.
func (m *Manager) StageAll(muts []Mutation) error {
	for k, mut := range muts {
		if err := m.Stage(mut); err != nil {
			return fmt.Errorf("epoch: stage %d: %w", k, err)
		}
	}
	return nil
}

// Seal applies the pending log to the current instance and installs
// the result as epoch e+1, re-deriving its rule from (I_{e+1}, r).
// Sealing an empty log is legal and produces an identical instance
// (and, by §12 determinism, a bit-identical rule). One seal runs at a
// time; the pending log is claimed before derivation so mutations
// staged mid-seal land in the next epoch.
func (m *Manager) Seal(ctx context.Context) (*Snapshot, error) {
	m.mu.Lock()
	if m.sealing {
		m.mu.Unlock()
		return nil, fmt.Errorf("epoch: %s: seal already in progress", m.tenant)
	}
	m.sealing = true
	base := m.snaps[m.current]
	log := m.pending
	m.pending = nil
	next := m.current + 1
	m.mu.Unlock()

	snap, err := m.sealInto(ctx, base, next, log)
	m.mu.Lock()
	m.sealing = false
	if err != nil {
		// Restage the claimed log ahead of anything staged meanwhile so
		// a failed seal loses nothing and order is preserved.
		m.pending = append(log, m.pending...)
		m.mu.Unlock()
		return nil, err
	}
	m.snaps[next] = snap
	m.current = next
	m.pruneLocked()
	m.mu.Unlock()
	return snap, nil
}

// sealInto derives the next snapshot outside the manager lock.
func (m *Manager) sealInto(ctx context.Context, base *Snapshot, next engine.EpochID, log []Mutation) (*Snapshot, error) {
	inst, err := Apply(base.Instance, log)
	if err != nil {
		return nil, fmt.Errorf("epoch: seal %d: %w", uint64(next), err)
	}
	// Apply has just made inst and this seal alone reads it, so its
	// alias table is private to the seal and dies with it: the shared
	// tables of NewSliceOracle are for catalogs several oracles index.
	sampler, err := oracle.NewAliasSampler(inst)
	if err != nil {
		return nil, fmt.Errorf("epoch: %s epoch %d oracle: %w", m.tenant, uint64(next), err)
	}
	return m.deriveSnapshot(ctx, next, oracle.NewSliceOracleWithSampler(inst, sampler), inst, log)
}

// pruneLocked drops the oldest retained snapshots beyond the budget.
// The current epoch is never pruned.
func (m *Manager) pruneLocked() {
	for len(m.snaps) > m.retain {
		oldest := m.current
		for ep := range m.snaps {
			if ep < oldest {
				oldest = ep
			}
		}
		if oldest == m.current {
			return
		}
		delete(m.snaps, oldest)
	}
}

// Snapshot returns a retained epoch.
func (m *Manager) Snapshot(ep engine.EpochID) (*Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.snaps[ep]
	return s, ok
}

// Retained returns the retained epoch IDs, ascending.
func (m *Manager) Retained() []engine.EpochID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]engine.EpochID, 0, len(m.snaps))
	for ep := range m.snaps {
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ruleQuerier answers membership from a sealed epoch's materialized
// rule: one slice access plus Rule.Decide, no oracle probes, exactly
// the artifact-store serving semantics. It is pure per epoch, which is
// what makes a (tenant, epoch) engine safe to cache, evict, and
// re-derive anywhere.
type ruleQuerier struct {
	snap *Snapshot
}

// Query answers one index from the sealed rule.
func (q ruleQuerier) Query(_ context.Context, i int) (bool, error) {
	if i < 0 || i >= q.snap.Instance.N() {
		return false, fmt.Errorf("epoch: query index %d out of range [0,%d)", i, q.snap.Instance.N())
	}
	return q.snap.Rule.Decide(i, q.snap.Instance.Items[i]), nil
}

// QueryBatch answers several indices from the sealed rule.
func (q ruleQuerier) QueryBatch(ctx context.Context, indices []int) ([]bool, error) {
	out := make([]bool, len(indices))
	for k, i := range indices {
		ans, err := q.Query(ctx, i)
		if err != nil {
			return nil, err
		}
		out[k] = ans
	}
	return out, nil
}

// Factory adapts the manager into the TenantTable's derivation seam:
// a (tenant, epoch) key resolves to an engine over that epoch's sealed
// rule. Requests for an unknown tenant, an unsealed epoch, or a pruned
// epoch fail loudly — a replica must never silently serve a different
// version than the query pinned.
func (m *Manager) Factory() engine.VersionedTenantFactory {
	return func(_ context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		if vt.Tenant != m.tenant {
			return engine.TenantState{}, fmt.Errorf("epoch: factory for %s asked to derive %s", m.tenant, vt.Tenant)
		}
		snap, ok := m.Snapshot(vt.Epoch)
		if !ok {
			return engine.TenantState{}, fmt.Errorf("epoch: %s epoch %d is not retained (current %d)", m.tenant, uint64(vt.Epoch), uint64(m.Current()))
		}
		return engine.TenantState{Engine: engine.New(ruleQuerier{snap: snap})}, nil
	}
}
