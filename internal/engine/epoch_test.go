package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// residents returns every resident (tenant, epoch) key, sorted by
// instance, seed and epoch.
func residents(t *TenantTable) []VersionedTenant {
	var keys []VersionedTenant
	t.entries.Range(func(k, _ any) bool {
		keys = append(keys, k.(VersionedTenant))
		return true
	})
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Tenant.Instance != b.Tenant.Instance {
			return a.Tenant.Instance < b.Tenant.Instance
		}
		if a.Tenant.Seed != b.Tenant.Seed {
			return a.Tenant.Seed < b.Tenant.Seed
		}
		return a.Epoch < b.Epoch
	})
	return keys
}

// epochQuerier answers by parity of i+epoch so two epochs of one
// tenant are distinguishable bit-for-bit.
type epochQuerier struct {
	vt VersionedTenant
}

func (q epochQuerier) Query(_ context.Context, i int) (bool, error) {
	return (uint64(i)+uint64(q.vt.Epoch))%2 == 0, nil
}

func (q epochQuerier) QueryBatch(ctx context.Context, indices []int) ([]bool, error) {
	out := make([]bool, len(indices))
	for k, i := range indices {
		out[k], _ = q.Query(ctx, i)
	}
	return out, nil
}

func versionedFactory(_ context.Context, vt VersionedTenant) (TenantState, error) {
	return TenantState{Engine: New(epochQuerier{vt: vt})}, nil
}

func TestTenantTableEpochsAreDistinctResidents(t *testing.T) {
	table := NewVersionedTenantTable(versionedFactory, 8)
	defer table.Close()
	ctx := context.Background()
	id := TenantID{Instance: 3, Seed: 9}

	e0, ep, err := table.GetEpoch(ctx, id, 0)
	if err != nil || ep != 0 {
		t.Fatalf("GetEpoch(0): ep=%d err=%v", ep, err)
	}
	e1, ep, err := table.GetEpoch(ctx, id, 1)
	if err != nil || ep != 1 {
		t.Fatalf("GetEpoch(1): ep=%d err=%v", ep, err)
	}
	if e0 == e1 {
		t.Fatal("epochs 0 and 1 share an engine")
	}
	// The two epochs answer differently (parity shifted by epoch).
	a0, _, _ := e0.Query(ctx, 4)
	a1, _, _ := e1.Query(ctx, 4)
	if a0 == a1 {
		t.Fatal("epoch answers should differ on this querier")
	}
	keys := residents(table)
	if len(keys) != 2 || keys[0] != (VersionedTenant{Tenant: id}) || keys[1] != (VersionedTenant{Tenant: id, Epoch: 1}) {
		t.Fatalf("residents = %v", keys)
	}
}

func TestTenantTableCurrentEpochResolution(t *testing.T) {
	table := NewVersionedTenantTable(versionedFactory, 8)
	defer table.Close()
	ctx := context.Background()
	id := TenantID{Instance: 5, Seed: 1}

	// Before any seal, EpochCurrent is epoch 0.
	_, ep, err := table.GetEpoch(ctx, id, EpochCurrent)
	if err != nil || ep != 0 {
		t.Fatalf("current epoch before seal: ep=%d err=%v", ep, err)
	}
	if err := table.SetCurrentEpoch(id, 2); err != nil {
		t.Fatal(err)
	}
	if got := table.CurrentEpoch(id); got != 2 {
		t.Fatalf("CurrentEpoch = %d, want 2", got)
	}
	_, ep, err = table.GetEpoch(ctx, id, EpochCurrent)
	if err != nil || ep != 2 {
		t.Fatalf("current epoch after seal: ep=%d err=%v", ep, err)
	}
	// Pinned queries to the old epoch still resolve.
	if _, ep, err = table.GetEpoch(ctx, id, 0); err != nil || ep != 0 {
		t.Fatalf("pinned epoch 0 after seal: ep=%d err=%v", ep, err)
	}
	// Regression is refused; the sentinel is refused.
	if err := table.SetCurrentEpoch(id, 1); err == nil {
		t.Fatal("epoch regression accepted")
	}
	if err := table.SetCurrentEpoch(id, EpochCurrent); err == nil {
		t.Fatal("sentinel epoch accepted")
	}
}

// TestLegacyFactoryRejectsNonZeroEpoch pins the table over a factory
// that can only derive epoch 0 — the shape of a one-tenant replica and
// of manifest tenants, which have no mutated instance to serve: epoch 0
// derives, a pin on a later epoch fails with the factory's own error
// rather than a silently wrong rule, and the failure leaves epoch 0
// resident and served.
func TestLegacyFactoryRejectsNonZeroEpoch(t *testing.T) {
	f := &countingFactory{}
	errNotEpochAware := errors.New("factory is not epoch-aware")
	epochZeroOnly := func(ctx context.Context, vt VersionedTenant) (TenantState, error) {
		if vt.Epoch != 0 {
			return TenantState{}, fmt.Errorf("tenant %s: epoch %d requested: %w", vt.Tenant, uint64(vt.Epoch), errNotEpochAware)
		}
		return f.factory(ctx, vt)
	}
	table := NewVersionedTenantTable(epochZeroOnly, 8)
	defer table.Close()
	ctx := context.Background()
	id := TenantID{Instance: 1, Seed: 2}

	e0, _, err := table.GetEpoch(ctx, id, 0)
	if err != nil {
		t.Fatalf("epoch 0 through epoch-0-only factory: %v", err)
	}
	_, _, err = table.GetEpoch(ctx, id, 1)
	if !errors.Is(err, errNotEpochAware) || !strings.Contains(err.Error(), "not epoch-aware") {
		t.Fatalf("epoch 1 through epoch-0-only factory: err=%v", err)
	}
	if st := table.Stats(); st.Derivations != 1 || st.DeriveErrors != 1 || st.Resident != 1 {
		t.Fatalf("stats after refused epoch = %+v", st)
	}
	if keys := residents(table); len(keys) != 1 || keys[0] != (VersionedTenant{Tenant: id}) {
		t.Fatalf("refused epoch left residents %v", keys)
	}
	if again, ep, err := table.GetEpoch(ctx, id, 0); err != nil || ep != 0 || again != e0 {
		t.Fatalf("epoch 0 after refused epoch: ep=%d err=%v same=%v", ep, err, again == e0)
	}
	if n := f.derivations.Load(); n != 1 {
		t.Fatalf("derivations = %d, want 1", n)
	}
}

func TestStaleEpochsAgeOutThroughLRU(t *testing.T) {
	table := NewVersionedTenantTable(versionedFactory, 2)
	defer table.Close()
	ctx := context.Background()
	id := TenantID{Instance: 7, Seed: 7}

	for ep := EpochID(0); ep <= 3; ep++ {
		if _, _, err := table.GetEpoch(ctx, id, ep); err != nil {
			t.Fatal(err)
		}
	}
	keys := residents(table)
	if len(keys) != 2 || keys[0].Epoch != 2 || keys[1].Epoch != 3 {
		t.Fatalf("stale epochs should be evicted oldest-first, resident: %v", keys)
	}
	if table.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", table.Stats().Evictions)
	}
	// An evicted epoch re-derives on demand (purity makes this safe).
	if _, ep, err := table.GetEpoch(ctx, id, 0); err != nil || ep != 0 {
		t.Fatalf("re-derive evicted epoch: ep=%d err=%v", ep, err)
	}
}

func TestVersionedTenantString(t *testing.T) {
	id := TenantID{Instance: 4, Seed: 9}
	if got := (VersionedTenant{Tenant: id}).String(); got != "i4-s9" {
		t.Fatalf("epoch-0 label changed: %q", got)
	}
	if got := (VersionedTenant{Tenant: id, Epoch: 3}).String(); got != "i4-s9-e3" {
		t.Fatalf("epoch label: %q", got)
	}
}
