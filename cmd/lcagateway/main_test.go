package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/oracle"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

// startReplicas brings up k in-process LCA replica servers over one
// shared instance and returns their addresses plus a baseline local
// LCA with identical parameters.
func startReplicas(t *testing.T, n, k int) (addrs []string, baseline *core.LCAKP) {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: 11})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	params := core.Params{Epsilon: 0.45, Seed: 9}
	for r := 0; r < k; r++ {
		acc, err := oracle.NewSliceOracle(gen.Float)
		if err != nil {
			t.Fatalf("NewSliceOracle: %v", err)
		}
		lca, err := core.NewLCAKP(acc, params)
		if err != nil {
			t.Fatalf("NewLCAKP: %v", err)
		}
		srv, err := cluster.NewLCAServer("127.0.0.1:0", engine.TenantID{Seed: params.Seed}, engine.New(lca))
		if err != nil {
			t.Fatalf("NewLCAServer: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	baseline, err = core.NewLCAKP(acc, params)
	if err != nil {
		t.Fatalf("NewLCAKP baseline: %v", err)
	}
	return addrs, baseline
}

func TestRequiresReplicas(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-addr", "127.0.0.1:0"}, &out, &errOut, func() {}); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-replicas") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

// notifyingWriter signals on every write so tests can wait for the
// "listening" line before reading the buffer.
type notifyingWriter struct {
	mu    sync.Mutex
	b     strings.Builder
	wrote chan struct{}
}

func newNotifyingWriter() *notifyingWriter {
	return &notifyingWriter{wrote: make(chan struct{}, 16)}
}

func (w *notifyingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	n, err := w.b.Write(p)
	w.mu.Unlock()
	select {
	case w.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (w *notifyingWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

var addrRE = regexp.MustCompile(`listening on (\S+)`)

// startGateway runs the CLI in a goroutine and returns the bound
// address, a shutdown function that waits for exit, and the output
// writer for post-shutdown assertions.
func startGateway(t *testing.T, args []string) (addr string, shutdown func(), out *notifyingWriter) {
	t.Helper()
	out = newNotifyingWriter()
	var errOut strings.Builder
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		done <- run(args, out, &errOut, func() { <-stop })
	}()

	deadline := time.After(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case <-out.wrote:
		case code := <-done:
			t.Fatalf("gateway exited early with code %d: %s", code, errOut.String())
		case <-deadline:
			t.Fatalf("gateway did not report an address; output: %q", out.String())
		}
	}
	return addr, func() {
		close(stop)
		if code := <-done; code != 0 {
			t.Errorf("gateway exit code %d: %s", code, errOut.String())
		}
	}, out
}

func TestGatewayFrontsFleetForUnmodifiedClients(t *testing.T) {
	replicaAddrs, baseline := startReplicas(t, 200, 2)
	gwAddr, stop, out := startGateway(t, []string{
		"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(replicaAddrs, ","),
		"-seed", "9",
	})

	client, err := cluster.DialLCA(gwAddr, 0)
	if err != nil {
		t.Fatalf("DialLCA(gateway): %v", err)
	}
	defer client.Close()

	ctx := context.Background()
	if err := client.Ping(ctx); err != nil {
		t.Fatalf("Ping through gateway: %v", err)
	}
	for _, item := range []int{0, 3, 50, 199, 3} { // repeated item exercises the cache
		want, err := baseline.Query(ctx, item)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", item, err)
		}
		got, err := client.InSolution(ctx, item)
		if err != nil {
			t.Fatalf("InSolution(%d) through gateway: %v", item, err)
		}
		if got != want {
			t.Errorf("item %d: gateway %v, baseline %v", item, got, want)
		}
	}
	batch, err := client.InSolutionBatch(ctx, []int{1, 2, 3})
	if err != nil {
		t.Fatalf("InSolutionBatch through gateway: %v", err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch answers = %d, want 3", len(batch))
	}

	stop()
	text := out.String()
	if !strings.Contains(text, "cache hit rate") || !strings.Contains(text, "shut down") {
		t.Errorf("shutdown output missing metrics summary: %q", text)
	}
}

// startMultiTenantReplicas brings up k multi-tenant replica servers,
// each with its own TenantTable deriving tenants (3,5) and (3,9) from
// one shared instance, with (3,5) answering untenanted frames.
func startMultiTenantReplicas(t *testing.T, n, k int) (addrs []string) {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: 11})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	factory := func(ctx context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		acc, err := oracle.NewSliceOracle(gen.Float)
		if err != nil {
			return engine.TenantState{}, err
		}
		lca, err := core.NewLCAKP(acc, core.Params{Epsilon: 0.45, Seed: vt.Tenant.Seed})
		if err != nil {
			return engine.TenantState{}, err
		}
		return engine.TenantState{Engine: engine.New(lca)}, nil
	}
	for r := 0; r < k; r++ {
		table := engine.NewVersionedTenantTable(factory, 8)
		srv, err := cluster.NewMultiLCAServer("127.0.0.1:0", table)
		if err != nil {
			t.Fatalf("NewMultiLCAServer: %v", err)
		}
		srv.SetDefaultTenant(engine.TenantID{Instance: 3, Seed: 5})
		t.Cleanup(func() { srv.Close(); table.Close() })
		addrs = append(addrs, srv.Addr())
	}
	return addrs
}

func writeConfig(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatewayRejectsBadTenantManifest(t *testing.T) {
	for _, bad := range []string{
		"3\n",           // short row
		"x 5\n",         // bad hash
		"3 5 rate=x\n",  // bad rate
		"3 5 shape=9\n", // unknown option
		"3 5\n3 5\n",    // duplicate
		"3 5 rate100\n", // missing '='
	} {
		var out, errOut strings.Builder
		code := run([]string{
			"-addr", "127.0.0.1:0", "-replicas", "127.0.0.1:1",
			"-tenants", writeConfig(t, "tenants.txt", bad),
		}, &out, &errOut, func() {})
		if code != 1 {
			t.Errorf("manifest %q: exit code %d, want 1", bad, code)
		}
		if !strings.Contains(errOut.String(), "tenant manifest") {
			t.Errorf("manifest %q: stderr = %q", bad, errOut.String())
		}
	}
}

func TestGatewayMultiTenantFlags(t *testing.T) {
	replicaAddrs := startMultiTenantReplicas(t, 200, 2)
	manifest := writeConfig(t, "tenants.txt", "# extra tenants\n3 9 rate=100000 burst=64\n")
	keys := writeConfig(t, "keys.txt", "alpha-secret 3:5\nroot-secret *\n")
	gwAddr, stop, out := startGateway(t, []string{
		"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(replicaAddrs, ","),
		"-instance-id", "3", "-seed", "5",
		"-tenants", manifest,
		"-api-keys", keys,
	})

	ctx := context.Background()

	// Keyless traffic is refused once -api-keys is set.
	bare, err := cluster.DialLCA(gwAddr, 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer bare.Close()
	if _, err := bare.InSolution(ctx, 0); err == nil {
		t.Fatal("keyless InSolution succeeded with -api-keys set")
	}

	// A scoped key reaches its tenant; the wildcard key reaches both.
	scoped, err := cluster.DialLCA(gwAddr, 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer scoped.Close()
	scoped.SetAPIKey("alpha-secret")
	if _, err := scoped.InSolution(ctx, 1); err != nil {
		t.Fatalf("scoped key on default tenant: %v", err)
	}
	scoped.SetTenant(engine.TenantID{Instance: 3, Seed: 9})
	if _, err := scoped.InSolution(ctx, 1); err == nil {
		t.Fatal("scoped key crossed into tenant (3,9)")
	}

	root, err := cluster.DialLCA(gwAddr, 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer root.Close()
	root.SetAPIKey("root-secret")
	root.SetTenant(engine.TenantID{Instance: 3, Seed: 9})
	for _, item := range []int{0, 7, 199, 7} {
		if _, err := root.InSolution(ctx, item); err != nil {
			t.Fatalf("wildcard key on tenant (3,9), item %d: %v", item, err)
		}
	}

	stop()
	text := out.String()
	for _, want := range []string{"auth rejects", "tenant i3-s5:", "tenant i3-s9:"} {
		if !strings.Contains(text, want) {
			t.Errorf("shutdown output missing %q: %q", want, text)
		}
	}
}

var debugAddrRE = regexp.MustCompile(`debug endpoint on (\S+)`)

func TestGatewayObservabilityFlags(t *testing.T) {
	replicaAddrs, _ := startReplicas(t, 200, 2)
	gwAddr, stop, out := startGateway(t, []string{
		"-addr", "127.0.0.1:0",
		"-replicas", strings.Join(replicaAddrs, ","),
		"-seed", "9",
		"-debug-addr", "127.0.0.1:0",
		"-trace", "64",
		"-warm", "50",
	})

	m := debugAddrRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no debug endpoint line in output: %q", out.String())
	}
	debugAddr := m[1]

	// The background warm finishes and reports.
	deadline := time.After(10 * time.Second)
	for !strings.Contains(out.String(), "warmed 50 cache entries") {
		select {
		case <-out.wrote:
		case <-deadline:
			t.Fatalf("warm did not complete; output: %q", out.String())
		}
	}

	ctx := context.Background()
	client, err := cluster.DialLCA(gwAddr, 0)
	if err != nil {
		t.Fatalf("DialLCA(gateway): %v", err)
	}
	defer client.Close()
	if _, err := client.InSolution(ctx, 3); err != nil {
		t.Fatalf("InSolution: %v", err)
	}

	// HTTP scrape: warmed entries and the query must both show.
	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, want := range []string{
		"lcakp_gateway_warmed_total 50",
		"lcakp_gateway_queries_total 1",
		"lcakp_gateway_cache_hits_total 1", // item 3 was warmed
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q; got:\n%s", want, body)
		}
	}

	// Wire scrape through the same connection that queried.
	scraped, err := client.ScrapeMetrics(ctx)
	if err != nil {
		t.Fatalf("ScrapeMetrics: %v", err)
	}
	if !strings.Contains(scraped, "lcakp_gateway_warmed_total 50") {
		t.Errorf("wire scrape missing warmed counter; got:\n%s", scraped)
	}

	stop()
	text := out.String()
	if !strings.Contains(text, "name=gateway.query") {
		t.Errorf("shutdown trace dump missing gateway.query span: %q", text)
	}
}

// TestGatewayStoreFlag boots a gateway with -store over a directory
// holding the fleet's materialized artifact: the cache warms from the
// artifact at startup, wire clients get exact bits, and not one
// replica RPC is spent — the restart-warm acceptance path at the CLI
// level.
func TestGatewayStoreFlag(t *testing.T) {
	const n = 120
	addrs, baseline := startReplicas(t, n, 1)

	// Materialize the artifact the replicas' (instance, seed) maps to:
	// same workload, same params as startReplicas.
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: 11})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	lca, err := core.NewLCAKP(acc, core.Params{Epsilon: 0.45, Seed: 9})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	ctx := context.Background()
	rule, err := store.MaterializeRule(ctx, lca)
	if err != nil {
		t.Fatalf("MaterializeRule: %v", err)
	}
	artifact, err := store.MaterializeEpoch(ctx, acc, rule, 0, 9, 0)
	if err != nil {
		t.Fatalf("MaterializeEpoch: %v", err)
	}
	dir := t.TempDir()
	st, err := store.New(dir, 0)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	if err := st.Put(ctx, artifact); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st.Close()

	addr, shutdown, out := startGateway(t, []string{
		"-addr", "127.0.0.1:0", "-replicas", strings.Join(addrs, ","),
		"-seed", "9", "-store", dir,
	})

	c, err := cluster.DialLCA(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	for i := 0; i < n; i++ {
		got, err := c.InSolution(ctx, i)
		if err != nil {
			t.Fatalf("InSolution(%d): %v", i, err)
		}
		want, err := baseline.Query(ctx, i)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", i, err)
		}
		if got != want {
			t.Errorf("item %d = %v, want %v", i, got, want)
		}
	}
	c.Close()
	shutdown()

	text := out.String()
	if !strings.Contains(text, "120 answers servable from artifacts") {
		t.Errorf("output missing warm-from-store line:\n%s", text)
	}
	// Every query was served from the installed artifact: zero replica
	// RPCs.
	if !strings.Contains(text, "0 attempts, 0 retries") {
		t.Errorf("output shows replica traffic, want none:\n%s", text)
	}
	if !strings.Contains(text, "artifact serves") {
		t.Errorf("output missing artifact-tier stats line:\n%s", text)
	}
}

// TestGatewayPeersRequireStore pins the flag contract: a peer ring
// without a local store has nowhere to land fetched artifacts.
func TestGatewayPeersRequireStore(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-addr", "127.0.0.1:0", "-replicas", "127.0.0.1:1",
		"-peers", "127.0.0.1:2",
	}, &out, &errOut, func() {})
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-peers requires -store") {
		t.Errorf("stderr = %q", errOut.String())
	}
}
