package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lcakp/internal/obs"
)

// tenantQuerier is a trivial Querier answering by parity of i+seed,
// distinct per tenant so cross-tenant mixups are detectable.
type tenantQuerier struct {
	id TenantID
}

func (q tenantQuerier) Query(_ context.Context, i int) (bool, error) {
	return (uint64(i)+q.id.Seed+q.id.Instance)%2 == 0, nil
}

func (q tenantQuerier) QueryBatch(ctx context.Context, indices []int) ([]bool, error) {
	out := make([]bool, len(indices))
	for k, i := range indices {
		out[k], _ = q.Query(ctx, i)
	}
	return out, nil
}

// countingFactory builds engines over tenantQuerier and counts
// derivations and closes.
type countingFactory struct {
	derivations atomic.Int64
	closes      atomic.Int64
	fail        atomic.Bool
}

func (f *countingFactory) factory(_ context.Context, vt VersionedTenant) (TenantState, error) {
	if f.fail.Load() {
		return TenantState{}, fmt.Errorf("factory down")
	}
	f.derivations.Add(1)
	return TenantState{
		Engine: New(tenantQuerier{id: vt.Tenant}),
		Close:  func() error { f.closes.Add(1); return nil },
	}, nil
}

func TestTenantTableDeriveAndHit(t *testing.T) {
	f := &countingFactory{}
	table := NewVersionedTenantTable(f.factory, 8)
	defer table.Close()
	ctx := context.Background()

	id := TenantID{Instance: 17, Seed: 7}
	e1, err := table.Get(ctx, id)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	e2, err := table.Get(ctx, id)
	if err != nil {
		t.Fatalf("get again: %v", err)
	}
	if e1 != e2 {
		t.Fatal("second Get derived a fresh engine instead of hitting")
	}
	if n := f.derivations.Load(); n != 1 {
		t.Fatalf("derivations = %d, want 1", n)
	}
	st := table.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Derivations != 1 || st.Resident != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Distinct tenants answer from distinct engines with distinct bits.
	other := TenantID{Instance: 17, Seed: 8}
	eo, err := table.Get(ctx, other)
	if err != nil {
		t.Fatalf("get other: %v", err)
	}
	a1, _, _ := e1.Query(ctx, 3)
	a2, _, _ := eo.Query(ctx, 3)
	if a1 == a2 {
		t.Fatal("tenants with different seeds answered identically (parity querier should differ)")
	}
}

func TestTenantTableSingleFlight(t *testing.T) {
	var derivations atomic.Int64
	gate := make(chan struct{})
	factory := func(context.Context, VersionedTenant) (TenantState, error) {
		derivations.Add(1)
		<-gate // hold every leader until all callers are in flight
		return TenantState{Engine: New(tenantQuerier{})}, nil
	}
	table := NewVersionedTenantTable(factory, 8)
	defer table.Close()

	const callers = 16
	var wg sync.WaitGroup
	engines := make([]*Engine, callers)
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			eng, err := table.Get(context.Background(), TenantID{Instance: 1, Seed: 1})
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			engines[k] = eng
		}(k)
	}
	close(gate)
	wg.Wait()
	if n := derivations.Load(); n != 1 {
		t.Fatalf("derivations = %d, want 1 (single-flight)", n)
	}
	for k := 1; k < callers; k++ {
		if engines[k] != engines[0] {
			t.Fatalf("caller %d got a different engine", k)
		}
	}
}

func TestTenantTableEviction(t *testing.T) {
	f := &countingFactory{}
	table := NewVersionedTenantTable(f.factory, 2)
	defer table.Close()
	ctx := context.Background()

	a := TenantID{Instance: 1, Seed: 1}
	b := TenantID{Instance: 2, Seed: 2}
	c := TenantID{Instance: 3, Seed: 3}
	if _, err := table.Get(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := table.Get(ctx, b); err != nil {
		t.Fatal(err)
	}
	// Touch a so b is the LRU victim when c arrives.
	if _, err := table.Get(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := table.Get(ctx, c); err != nil {
		t.Fatal(err)
	}

	if _, ok := table.Peek(b); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := table.Peek(a); !ok {
		t.Fatal("a should still be resident (recently used)")
	}
	st := table.Stats()
	if st.Evictions != 1 || st.Resident != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 resident", st)
	}
	if n := f.closes.Load(); n != 1 {
		t.Fatalf("closes = %d, want 1 (victim's Close hook)", n)
	}
	ids := table.Resident()
	if len(ids) != 2 || ids[0] != a || ids[1] != c {
		t.Fatalf("resident = %v, want [a c] sorted", ids)
	}

	// The evicted tenant re-derives on demand.
	if _, err := table.Get(ctx, b); err != nil {
		t.Fatalf("re-derive evicted tenant: %v", err)
	}
}

func TestTenantTableDeriveError(t *testing.T) {
	f := &countingFactory{}
	f.fail.Store(true)
	table := NewVersionedTenantTable(f.factory, 4)
	defer table.Close()
	ctx := context.Background()

	id := TenantID{Instance: 5, Seed: 5}
	if _, err := table.Get(ctx, id); err == nil {
		t.Fatal("Get should surface the factory error")
	}
	if st := table.Stats(); st.DeriveErrors != 1 || st.Resident != 0 {
		t.Fatalf("stats = %+v, want 1 derive error, 0 resident", st)
	}
	// A failed derivation is not cached: the tenant derives once the
	// factory recovers.
	f.fail.Store(false)
	if _, err := table.Get(ctx, id); err != nil {
		t.Fatalf("get after recovery: %v", err)
	}
}

func TestTenantTableClose(t *testing.T) {
	f := &countingFactory{}
	table := NewVersionedTenantTable(f.factory, 4)
	ctx := context.Background()
	if _, err := table.Get(ctx, TenantID{Instance: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := table.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := f.closes.Load(); n != 1 {
		t.Fatalf("closes = %d, want 1", n)
	}
	if _, err := table.Get(ctx, TenantID{Instance: 2, Seed: 2}); !errors.Is(err, ErrTenantTableClosed) {
		t.Fatalf("Get after Close = %v, want ErrTenantTableClosed", err)
	}
}

func TestTenantTableExposeTenants(t *testing.T) {
	f := &countingFactory{}
	table := NewVersionedTenantTable(f.factory, 4)
	defer table.Close()
	ctx := context.Background()

	reg := obs.NewRegistry()
	if err := table.RegisterMetrics(reg, "lcakp_tenant_table"); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := table.ExposeTenants(reg, "lcakp_tenant_engine"); err != nil {
		t.Fatalf("expose tenants: %v", err)
	}

	id := TenantID{Instance: 17, Seed: 7}
	eng, err := table.Get(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Query(ctx, 4); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lcakp_tenant_engine_queries_total{tenant="i17-s7"} 1`,
		"lcakp_tenant_table_derivations_total 1",
		"lcakp_tenant_table_resident 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Eviction drops the tenant's labeled children.
	for k := 0; k < 5; k++ {
		if _, err := table.Get(ctx, TenantID{Instance: 100 + uint64(k), Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `tenant="i17-s7"`) {
		t.Errorf("evicted tenant still exposed:\n%s", b.String())
	}
}

func TestTenantIDString(t *testing.T) {
	if got := (TenantID{Instance: 17, Seed: 7}).String(); got != "i17-s7" {
		t.Fatalf("String = %q, want i17-s7", got)
	}
}

// BenchmarkTenantTableLookup guards the resident-tenant hot path: the
// table sits in front of every query a multi-tenant replica serves, so
// a cached lookup must stay in the same order of magnitude as the
// gateway's ~61ns cached-answer path (see the acceptance budget in
// EXPERIMENTS/CI).
func BenchmarkTenantTableLookup(b *testing.B) {
	f := &countingFactory{}
	table := NewVersionedTenantTable(f.factory, 8)
	defer table.Close()
	id := TenantID{Instance: 17, Seed: 7}
	if _, err := table.Get(context.Background(), id); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := table.Get(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
	})
}
