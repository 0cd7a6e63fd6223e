package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/workload"
)

// startReplicas spins up an in-process instance server plus two LCA
// replicas (shared seed) and returns their addresses.
func startReplicas(t *testing.T) []string {
	addrs, _ := startReplicaFleet(t)
	return addrs
}

// startReplicaFleet is startReplicas also returning the fleet for
// tests that configure the servers (registries).
func startReplicaFleet(t *testing.T) ([]string, *cluster.Fleet) {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: 200, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	access, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	fleet, err := cluster.NewFleet(access, 2, core.Params{Epsilon: 0.2, Seed: 8})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(fleet.Close)
	addrs := make([]string, len(fleet.Replicas))
	for i, r := range fleet.Replicas {
		addrs[i] = r.Addr()
	}
	return addrs, fleet
}

func TestQueryExplicitItems(t *testing.T) {
	addrs := startReplicas(t)
	var out, errOut strings.Builder
	code := run([]string{
		"-replicas", strings.Join(addrs, ","),
		"-items", "1, 50,199",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "unanimous across 2 replicas") {
		t.Errorf("output missing summary:\n%s", text)
	}
	if !strings.Contains(text, "199") {
		t.Errorf("output missing queried item:\n%s", text)
	}
}

func TestQueryRandomItems(t *testing.T) {
	addrs := startReplicas(t)
	var out, errOut strings.Builder
	code := run([]string{
		"-replicas", addrs[0],
		"-random", "5", "-n", "200",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "5/5 queries unanimous") {
		t.Errorf("single replica should be trivially unanimous:\n%s", out.String())
	}
}

func TestScrapeReplicaMetrics(t *testing.T) {
	addrs, fleet := startReplicaFleet(t)
	for _, r := range fleet.Replicas {
		r.SetRegistry(obs.NewRegistry())
	}
	var out, errOut strings.Builder
	code := run([]string{
		"-replicas", strings.Join(addrs, ","),
		"-items", "1,2",
		"-scrape",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	for _, addr := range addrs {
		if !strings.Contains(text, "# metrics from "+addr) {
			t.Errorf("output missing scrape header for %s:\n%s", addr, text)
		}
	}
	// The scrape travels on the query connection, so the queries made
	// just above are already counted.
	if !strings.Contains(text, "lcakp_server_requests_total") {
		t.Errorf("output missing server counters:\n%s", text)
	}
}

func TestScrapeWithoutQueries(t *testing.T) {
	addrs, fleet := startReplicaFleet(t)
	fleet.Replicas[0].SetRegistry(obs.NewRegistry())
	var out, errOut strings.Builder
	code := run([]string{"-replicas", addrs[0], "-scrape"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "unanimous") {
		t.Errorf("scrape-only run printed a query table:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "lcakp_server_conns_accepted_total") {
		t.Errorf("scrape-only output missing exposition:\n%s", out.String())
	}
}

func TestMissingQuerySpec(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-replicas", "127.0.0.1:1"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRandomRequiresN(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-random", "5"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-n") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestBadItemIndex(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-items", "1,x,3"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestUnreachableReplica(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-replicas", "127.0.0.1:1", "-items", "0"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

// startMultiTenantReplica brings up one multi-tenant replica serving
// tenants (3,5) and (3,9) over a shared instance, (3,5) by default.
func startMultiTenantReplica(t *testing.T) string {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: 200, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	served := map[engine.TenantID]bool{
		{Instance: 3, Seed: 5}: true,
		{Instance: 3, Seed: 9}: true,
	}
	factory := func(ctx context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		id := vt.Tenant
		if !served[id] || vt.Epoch != 0 {
			return engine.TenantState{}, fmt.Errorf("%s is not served here", vt)
		}
		acc, err := oracle.NewSliceOracle(gen.Float)
		if err != nil {
			return engine.TenantState{}, err
		}
		lca, err := core.NewLCAKP(acc, core.Params{Epsilon: 0.2, Seed: id.Seed})
		if err != nil {
			return engine.TenantState{}, err
		}
		return engine.TenantState{Engine: engine.New(lca)}, nil
	}
	table := engine.NewVersionedTenantTable(factory, 4)
	srv, err := cluster.NewMultiLCAServer("127.0.0.1:0", table)
	if err != nil {
		t.Fatalf("NewMultiLCAServer: %v", err)
	}
	srv.SetDefaultTenant(engine.TenantID{Instance: 3, Seed: 5})
	t.Cleanup(func() { srv.Close(); table.Close() })
	return srv.Addr()
}

func TestQueryTenantAndScrape(t *testing.T) {
	addr := startMultiTenantReplica(t)
	var out, errOut strings.Builder
	code := run([]string{
		"-replicas", addr,
		"-tenant", "3:9",
		"-items", "1,50,199",
		"-scrape",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "unanimous across 1 replicas") {
		t.Errorf("output missing summary:\n%s", text)
	}
	// The tenant-scoped scrape shows the tenant engine's counters.
	if !strings.Contains(text, "lcakp_engine_queries_total 3") {
		t.Errorf("tenant scrape missing engine counters:\n%s", text)
	}
}

func TestQueryUnknownTenantFails(t *testing.T) {
	addr := startMultiTenantReplica(t)
	var out, errOut strings.Builder
	if code := run([]string{"-replicas", addr, "-tenant", "8:1", "-items", "0"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestBadTenantFlag(t *testing.T) {
	for _, bad := range []string{"3", "x:5", "3:x", "3:5:7"} {
		var out, errOut strings.Builder
		if code := run([]string{"-tenant", bad, "-items", "0"}, &out, &errOut); code != 2 {
			t.Errorf("-tenant %q: exit code %d, want 2", bad, code)
		}
		if !strings.Contains(errOut.String(), "-tenant") {
			t.Errorf("-tenant %q: stderr = %q", bad, errOut.String())
		}
	}
}

// TestQueryEpochPinned pins -epoch against epoch-aware servers: a
// concrete pin reports the served epoch per answer, and "current"
// resolves to whatever the server sealed last.
func TestQueryEpochPinned(t *testing.T) {
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: 200, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	access, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	id := engine.TenantID{Instance: 0, Seed: 8}
	factory := func(_ context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		lca, err := core.NewLCAKP(access, core.Params{Epsilon: 0.2, Seed: vt.Tenant.Seed})
		if err != nil {
			return engine.TenantState{}, err
		}
		return engine.TenantState{Engine: engine.New(lca)}, nil
	}
	table := engine.NewVersionedTenantTable(factory, 4)
	t.Cleanup(func() { table.Close() })
	srv, err := cluster.NewMultiLCAServer("127.0.0.1:0", table)
	if err != nil {
		t.Fatalf("NewMultiLCAServer: %v", err)
	}
	srv.SetDefaultTenant(id)
	t.Cleanup(func() { srv.Close() })

	var out, errOut strings.Builder
	code := run([]string{
		"-replicas", srv.Addr(),
		"-items", "1,50",
		"-epoch", "0",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "@e0") {
		t.Errorf("pinned output missing served epoch:\n%s", out.String())
	}

	out.Reset()
	code = run([]string{
		"-replicas", srv.Addr(),
		"-items", "1,50",
		"-epoch", "current",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d (current), stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "@e0") {
		t.Errorf("current-epoch output missing served epoch:\n%s", out.String())
	}
}

func TestBadEpochFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-items", "1", "-epoch", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "bad -epoch") {
		t.Errorf("stderr = %q", errOut.String())
	}
}
