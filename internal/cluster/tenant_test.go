package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/oracle"
	"lcakp/internal/workload"
)

// epochInstance generates the deterministic instance of one (tenant,
// epoch): churn is modeled by varying the workload seed with the
// epoch, so two epochs of one tenant answer visibly differently while
// any two derivations of the same (tenant, epoch) are identical.
func epochInstance(t testing.TB, vt engine.VersionedTenant) *oracle.SliceOracle {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{
		Name: "uniform", N: 150, Seed: vt.Tenant.Instance*31 + uint64(vt.Epoch)*1000003,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	return acc
}

// newTestMultiServer starts a MultiLCAServer over instances 1 and 2
// whose factory derives any (tenant, epoch) on demand, with a
// residency budget of 8.
func newTestMultiServer(t *testing.T) *MultiLCAServer {
	t.Helper()
	factory := func(_ context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		if vt.Tenant.Instance != 1 && vt.Tenant.Instance != 2 {
			return engine.TenantState{}, fmt.Errorf("no instance with hash %d", vt.Tenant.Instance)
		}
		lca, err := core.NewLCAKP(epochInstance(t, vt), core.Params{Epsilon: 0.25, Seed: vt.Tenant.Seed})
		if err != nil {
			return engine.TenantState{}, err
		}
		return engine.TenantState{Engine: engine.New(lca)}, nil
	}
	table := engine.NewVersionedTenantTable(factory, 8)
	t.Cleanup(func() { table.Close() })
	srv, err := NewMultiLCAServer("127.0.0.1:0", table)
	if err != nil {
		t.Fatalf("NewMultiLCAServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// epochBaseline computes the local reference answers of one (tenant,
// epoch) for items [0, n) — the bits every remote path must match.
func epochBaseline(t *testing.T, vt engine.VersionedTenant, n int) []bool {
	t.Helper()
	lca, err := core.NewLCAKP(epochInstance(t, vt), core.Params{Epsilon: 0.25, Seed: vt.Tenant.Seed})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	out := make([]bool, n)
	for i := range out {
		out[i], err = lca.Query(context.Background(), i)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
	}
	return out
}

// TestSingleTenantResolver pins routing at a one-tenant replica
// (NewLCAServer): frames naming its own tenant and untenanted frames
// reach the same engine and agree, and any other tenant — another
// seed of the same instance included — is an unknown tenant.
func TestSingleTenantResolver(t *testing.T) {
	acc, _ := testAccess(t, 100)
	srv := newTestLCAServer(t, acc)
	client, err := DialLCA(srv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()
	ctx := context.Background()

	for _, i := range []int{3, 17, 64} {
		want, err := client.InSolution(ctx, i)
		if err != nil {
			t.Fatalf("InSolution: %v", err)
		}
		got, err := client.InSolutionTenant(ctx, testTenant, i)
		if err != nil {
			t.Fatalf("InSolutionTenant: %v", err)
		}
		if got != want {
			t.Errorf("item %d: tenanted and untenanted queries to a one-tenant replica disagreed", i)
		}
	}
	for _, other := range []engine.TenantID{
		{Instance: testTenant.Instance, Seed: testTenant.Seed + 1},
		{Instance: testTenant.Instance + 1, Seed: testTenant.Seed},
	} {
		if _, err := client.InSolutionTenant(ctx, other, 3); !errors.Is(err, ErrRemote) ||
			!strings.Contains(err.Error(), "unknown tenant") {
			t.Errorf("tenant %s: error = %v, want an unknown-tenant rejection", other, err)
		}
	}
}

// TestMultiLCAServerClientPaths drives the multi-tenant server through
// the exported client API: per-call tenant variants, connection-level
// defaults, batch isolation across tenants, and tenant-scoped scrapes.
func TestMultiLCAServerClientPaths(t *testing.T) {
	srv := newTestMultiServer(t)
	ctx := context.Background()

	client, err := DialLCA(srv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	// No default tenant configured: untenanted queries are rejected.
	if _, err := client.InSolution(ctx, 1); err == nil ||
		!strings.Contains(err.Error(), "no default tenant") {
		t.Fatalf("untenanted query without default: error = %v", err)
	}

	a := engine.TenantID{Instance: 1, Seed: 2}
	b := engine.TenantID{Instance: 2, Seed: 5}
	indices := []int{0, 3, 7, 11, 42}
	baseA := epochBaseline(t, engine.VersionedTenant{Tenant: a}, 43)
	baseB := epochBaseline(t, engine.VersionedTenant{Tenant: b}, 43)

	gotA, err := client.InSolutionBatchTenant(ctx, a, indices)
	if err != nil {
		t.Fatalf("batch tenant a: %v", err)
	}
	gotB, err := client.InSolutionBatchTenant(ctx, b, indices)
	if err != nil {
		t.Fatalf("batch tenant b: %v", err)
	}
	for k, i := range indices {
		if gotA[k] != baseA[i] {
			t.Errorf("tenant a item %d: wire %v, local %v", i, gotA[k], baseA[i])
		}
		if gotB[k] != baseB[i] {
			t.Errorf("tenant b item %d: wire %v, local %v", i, gotB[k], baseB[i])
		}
	}

	// Connection-level default: SetTenant namespaces plain calls.
	client.SetTenant(b)
	in, err := client.InSolution(ctx, indices[0])
	if err != nil {
		t.Fatalf("defaulted InSolution: %v", err)
	}
	if in != baseB[indices[0]] {
		t.Errorf("SetTenant default answered %v, want tenant b's %v", in, baseB[indices[0]])
	}

	// Tenant-scoped scrape: resident tenant exposes engine counters;
	// non-resident tenants are rejected.
	out, err := client.ScrapeTenantMetrics(ctx, b)
	if err != nil {
		t.Fatalf("ScrapeTenantMetrics: %v", err)
	}
	if !strings.Contains(out, "lcakp_engine_queries_total") {
		t.Errorf("tenant scrape missing engine counters:\n%s", out)
	}
	if _, err := client.ScrapeTenantMetrics(ctx, engine.TenantID{Instance: 1, Seed: 999}); err == nil ||
		!strings.Contains(err.Error(), "not resident") {
		t.Errorf("non-resident scrape: error = %v, want not-resident rejection", err)
	}
}

// TestEpochBatchAcrossRollover pins the batch RPC's epoch behavior:
// pinned batches answer bit-identically before and after a rollover,
// and the served-epoch echo tracks the pin.
func TestEpochBatchAcrossRollover(t *testing.T) {
	srv := newTestMultiServer(t)
	id := engine.TenantID{Instance: 2, Seed: 5}
	client, err := DialLCA(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	indices := []int{0, 3, 7, 11, 42, 99}
	ctx := context.Background()
	before, served, err := client.InSolutionBatchEpochTenant(ctx, id, 0, indices)
	if err != nil || served != 0 {
		t.Fatalf("pre-roll batch: served=%d err=%v", served, err)
	}
	if err := srv.Table().SetCurrentEpoch(id, 3); err != nil {
		t.Fatal(err)
	}
	after, served, err := client.InSolutionBatchEpochTenant(ctx, id, 0, indices)
	if err != nil || served != 0 {
		t.Fatalf("post-roll pinned batch: served=%d err=%v", served, err)
	}
	for k := range indices {
		if before[k] != after[k] {
			t.Fatalf("pinned answer for item %d drifted across rollover", indices[k])
		}
	}
	cur, served, err := client.InSolutionBatchEpochTenant(ctx, id, engine.EpochCurrent, indices)
	if err != nil || served != 3 {
		t.Fatalf("sentinel batch: served=%d err=%v", served, err)
	}
	base3 := epochBaseline(t, engine.VersionedTenant{Tenant: id, Epoch: 3}, 100)
	for k, i := range indices {
		if cur[k] != base3[i] {
			t.Fatalf("current-epoch answer for item %d does not match epoch-3 baseline", i)
		}
	}
}

// TestEpochAgainstNonEpochAwareServer pins the servers that hold one
// version only — the one-tenant replica and a plain Backend mounted by
// NewQueryServer. Both serve epoch 0 and the current-epoch sentinel
// (each means their only version) and refuse a pin on a later epoch
// with ErrRemote rather than answering from the wrong instance.
func TestEpochAgainstNonEpochAwareServer(t *testing.T) {
	acc, _ := testAccess(t, 100)
	srv := newTestLCAServer(t, acc)
	client, err := DialLCA(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()
	ctx := context.Background()

	lca, err := core.NewLCAKP(acc, core.Params{Epsilon: 0.25, Seed: testTenant.Seed})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	want, err := lca.Query(ctx, 7)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	in, served, err := client.InSolutionEpochTenant(ctx, testTenant, 0, 7)
	if err != nil || served != 0 || in != want {
		t.Fatalf("epoch 0 at a one-tenant replica: in=%v served=%d err=%v", in, served, err)
	}
	in, served, err = client.InSolutionEpochTenant(ctx, testTenant, engine.EpochCurrent, 7)
	if err != nil || served != 0 || in != want {
		t.Fatalf("sentinel at a one-tenant replica: in=%v served=%d err=%v", in, served, err)
	}
	for _, pin := range []func() error{
		func() error { _, _, err := client.InSolutionEpochTenant(ctx, testTenant, 2, 7); return err },
		func() error { _, _, err := client.InSolutionEpoch(ctx, 2, 7); return err },
		func() error { _, _, err := client.InSolutionBatchEpoch(ctx, 2, []int{7}); return err },
	} {
		if err := pin(); !errors.Is(err, ErrRemote) {
			t.Fatalf("epoch 2 pinned at a one-tenant replica: err=%v, want ErrRemote", err)
		}
	}

	plain, err := NewQueryServer("127.0.0.1:0", stubBackend{})
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer plain.Close()
	pc, err := DialLCA(plain.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer pc.Close()
	for _, ep := range []engine.EpochID{0, engine.EpochCurrent} {
		if _, served, err := pc.InSolutionEpoch(ctx, ep, 7); err != nil || served != 0 {
			t.Fatalf("epoch %d at a plain backend: served=%d err=%v", uint64(ep), served, err)
		}
	}
	if _, _, err := pc.InSolutionEpoch(ctx, 2, 7); !errors.Is(err, ErrRemote) {
		t.Fatalf("epoch 2 pinned at a plain backend: err=%v, want ErrRemote", err)
	}
	if _, err := pc.InSolutionTenant(ctx, testTenant, 7); !errors.Is(err, ErrRemote) ||
		!strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("tenanted frame at a plain backend: err=%v, want an unknown-tenant rejection", err)
	}
}
