package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/workload"
)

// multiEpsilon is the LCA epsilon shared by every tenant replica and
// every local baseline in the multi-tenant tests.
const multiEpsilon = 0.3

// testMultiFleet starts k tenant-aware replica servers, each with its
// own TenantTable over the same two in-process instances (hashes 1 and
// 2), and returns their addresses plus the instance oracles for
// building baselines.
func testMultiFleet(t testing.TB, n, k int) (addrs []string, servers []*cluster.MultiLCAServer, instances map[uint64]*oracle.SliceOracle) {
	t.Helper()
	instances = make(map[uint64]*oracle.SliceOracle)
	for _, hash := range []uint64{1, 2} {
		gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: hash * 31})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		acc, err := oracle.NewSliceOracle(gen.Float)
		if err != nil {
			t.Fatalf("NewSliceOracle: %v", err)
		}
		instances[hash] = acc
	}
	factory := func(_ context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		acc, ok := instances[vt.Tenant.Instance]
		if !ok || vt.Epoch != 0 {
			return engine.TenantState{}, fmt.Errorf("no instance for %s", vt)
		}
		lca, err := core.NewLCAKP(acc, core.Params{Epsilon: multiEpsilon, Seed: vt.Tenant.Seed})
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
		t.Cleanup(func() { srv.Close(); table.Close() })
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	return addrs, servers, instances
}

// multiBaseline computes the reference answer vector for one tenant
// with a fresh local replica — the bits every gateway answer for that
// tenant must match.
func multiBaseline(t testing.TB, acc *oracle.SliceOracle, seed uint64, n int) []bool {
	t.Helper()
	lca, err := core.NewLCAKP(acc, core.Params{Epsilon: multiEpsilon, Seed: seed})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	answers := make([]bool, n)
	for i := range answers {
		in, err := lca.Query(context.Background(), i)
		if err != nil {
			t.Fatalf("Query(%d): %v", i, err)
		}
		answers[i] = in
	}
	return answers
}

// isRemoteQuotaReject reports whether err is the wire image of
// ErrQuotaExceeded.
func isRemoteQuotaReject(err error) bool {
	return errors.Is(err, cluster.ErrRemote) && strings.Contains(err.Error(), "quota exceeded")
}

// scrapeValue pulls one rendered sample line's value out of a
// Prometheus text body, -1 when the line is absent.
func scrapeValue(body, line string) float64 {
	for _, l := range strings.Split(body, "\n") {
		if !strings.HasPrefix(l, line+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(l, line+" "), 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// TestMultiTenantE2E is the acceptance run for the tenancy refactor:
// two tenants (distinct instances AND distinct seeds) share one
// gateway and one tenant-aware replica fleet; thousands of interleaved
// authenticated queries from concurrent clients — with a replica
// killed mid-stream and a quota throttling one tenant — must all match
// their own tenant's local baseline bit for bit, and the per-tenant
// accounting must surface on a /metrics scrape.
func TestMultiTenantE2E(t *testing.T) {
	const (
		n          = 200 // instance size
		itemRange  = 64  // query key space (small, to force cache hits)
		workers    = 4   // per tenant
		perWorker  = 1000
		quotaRate  = 200 // tenant B admission rate (queries/s)
		quotaBurst = 80
	)
	addrs, servers, instances := testMultiFleet(t, n, 3)
	tenantA := engine.TenantID{Instance: 1, Seed: 2}
	tenantB := engine.TenantID{Instance: 2, Seed: 5}
	// Untenanted (pre-v3) frames from the gateway's default tenant land
	// on tenant A at the replicas.
	for _, srv := range servers {
		srv.SetDefaultTenant(tenantA)
	}
	baseA := multiBaseline(t, instances[tenantA.Instance], tenantA.Seed, n)
	baseB := multiBaseline(t, instances[tenantB.Instance], tenantB.Seed, n)

	auth := NewAuthorizer()
	auth.Grant("alpha", tenantA)
	auth.Grant("beta", tenantB)
	gw, err := New(Options{
		Replicas: addrs,
		Instance: tenantA.Instance,
		Seed:     tenantA.Seed,
		Tenants: []TenantOptions{
			{Instance: tenantB.Instance, Seed: tenantB.Seed, RateLimit: quotaRate, Burst: quotaBurst},
		},
		Auth:            auth,
		HedgeDelay:      -1, // hedging off: keep attempt accounting deterministic
		HealthInterval:  50 * time.Millisecond,
		BreakerCooldown: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	// The gateway mounts as a tenant-aware wire server: clients reach
	// tenants through Resolve, API keys and all.
	qs, err := cluster.NewQueryServer("127.0.0.1:0", gw)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer qs.Close()

	reg := obs.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		t.Fatalf("RegisterMetrics: %v", err)
	}
	ms := httptest.NewServer(reg.Handler())
	defer ms.Close()

	ctx := context.Background()

	// Auth negatives through the wire: no key, and a key granted only
	// the other tenant.
	unauth, err := cluster.DialLCA(qs.Addr(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := unauth.InSolution(ctx, 0); !errors.Is(err, cluster.ErrRemote) ||
		!strings.Contains(err.Error(), "unauthorized") {
		t.Fatalf("keyless query: error = %v, want remote unauthorized", err)
	}
	unauth.Close()
	crossed, err := cluster.DialLCA(qs.Addr(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	crossed.SetAPIKey("alpha")
	if _, err := crossed.InSolutionTenant(ctx, tenantB, 0); !errors.Is(err, cluster.ErrRemote) ||
		!strings.Contains(err.Error(), "unauthorized") {
		t.Fatalf("cross-tenant key: error = %v, want remote unauthorized", err)
	}
	crossed.Close()

	// The storm: per tenant, `workers` concurrent wire clients issue
	// interleaved point and batch queries over a small item range.
	// Tenant A is unthrottled and every answer must be served; tenant B
	// rides a quota sized well below the offered load, so rejects are
	// expected — but every answer that IS served must still be exact.
	var (
		wg         sync.WaitGroup
		mismatches atomic.Int64
		servedB    atomic.Int64
		rejectedB  atomic.Int64
	)
	fatalCh := make(chan error, 2*workers)
	fatal := func(err error) {
		select {
		case fatalCh <- err:
		default:
		}
	}
	check := func(tid engine.TenantID, base []bool, item int, got bool) {
		if got != base[item] {
			if mismatches.Add(1) <= 5 {
				t.Errorf("tenant %s item %d: got %v, want %v", tid, item, got, base[item])
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(2)
		// Tenant A worker: no SetTenant, so its frames address the
		// gateway's default tenant, and the gateway's own replica frames
		// stay untenanted — the pre-v3 compatibility path, end to end.
		go func(w int) {
			defer wg.Done()
			c, err := cluster.DialLCA(qs.Addr(), 5*time.Second)
			if err != nil {
				fatal(fmt.Errorf("dial A%d: %w", w, err))
				return
			}
			defer c.Close()
			c.SetAPIKey("alpha")
			for q := 0; q < perWorker; q++ {
				item := (w*37 + q*11) % itemRange
				if q%16 == 5 { // sprinkle batches through the stream
					batch := []int{item, (item + 1) % itemRange, (item + 2) % itemRange}
					got, err := c.InSolutionBatch(ctx, batch)
					if err != nil {
						fatal(fmt.Errorf("A%d batch: %w", w, err))
						return
					}
					for k, it := range batch {
						check(tenantA, baseA, it, got[k])
					}
					continue
				}
				got, err := c.InSolution(ctx, item)
				if err != nil {
					fatal(fmt.Errorf("A%d query: %w", w, err))
					return
				}
				check(tenantA, baseA, item, got)
			}
		}(w)
		// Tenant B worker: v3 tenanted frames, quota-throttled.
		go func(w int) {
			defer wg.Done()
			c, err := cluster.DialLCA(qs.Addr(), 5*time.Second)
			if err != nil {
				fatal(fmt.Errorf("dial B%d: %w", w, err))
				return
			}
			defer c.Close()
			c.SetAPIKey("beta")
			c.SetTenant(tenantB)
			for q := 0; q < perWorker; q++ {
				item := (w*53 + q*7) % itemRange
				got, err := c.InSolution(ctx, item)
				if isRemoteQuotaReject(err) {
					rejectedB.Add(1)
					continue
				}
				if err != nil {
					fatal(fmt.Errorf("B%d query: %w", w, err))
					return
				}
				servedB.Add(1)
				check(tenantB, baseB, item, got)
			}
		}(w)
	}

	// Kill one replica mid-stream: its breaker must trip and traffic
	// must fail over with zero surfaced errors and zero wrong bits.
	time.Sleep(100 * time.Millisecond)
	servers[0].Close()
	wg.Wait()
	select {
	case err := <-fatalCh:
		t.Fatalf("worker error: %v", err)
	default:
	}
	if got := mismatches.Load(); got != 0 {
		t.Fatalf("%d cross-checked answers diverged from tenant baselines", got)
	}
	if servedB.Load() == 0 || rejectedB.Load() == 0 {
		t.Fatalf("tenant B served = %d rejected = %d; want both nonzero", servedB.Load(), rejectedB.Load())
	}

	// Deterministic per-tenant cache hits: after a quota refill pause,
	// two sequential same-item queries per tenant — the second is a hit.
	time.Sleep(300 * time.Millisecond)
	seq, err := cluster.DialLCA(qs.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer seq.Close()
	seq.SetAPIKey("beta")
	for j := 0; j < 2; j++ {
		got, err := seq.InSolutionTenant(ctx, tenantB, 3)
		if err != nil {
			t.Fatalf("sequential B query: %v", err)
		}
		check(tenantB, baseB, 3, got)
	}

	// The health loop must notice the kill: the dead replica's breaker
	// trips and it leaves the healthy set.
	deadline := time.Now().Add(2 * time.Second)
	for len(gw.Healthy()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("Healthy() = %v after replica kill, want 2 members", gw.Healthy())
		}
		time.Sleep(10 * time.Millisecond)
	}
	m := gw.Metrics()
	if m.BreakerTrips == 0 {
		t.Errorf("BreakerTrips = %d after replica kill, want nonzero", m.BreakerTrips)
	}
	if m.AuthRejects < 2 {
		t.Errorf("AuthRejects = %d, want >= 2", m.AuthRejects)
	}
	ma, ok := gw.TenantMetrics(tenantA)
	if !ok || ma.Queries == 0 || ma.BatchQueries == 0 || ma.CacheHits == 0 {
		t.Errorf("tenant A metrics = %+v (ok=%v); want queries, batches, and hits", ma, ok)
	}
	mb, ok := gw.TenantMetrics(tenantB)
	if !ok || mb.CacheHits == 0 || mb.QuotaRejects == 0 {
		t.Errorf("tenant B metrics = %+v (ok=%v); want hits and quota rejects", mb, ok)
	}
	if int64(rejectedB.Load()) != mb.QuotaRejects {
		t.Errorf("client-observed rejects %d != counted rejects %d", rejectedB.Load(), mb.QuotaRejects)
	}

	// The same accounting must surface on the HTTP scrape, labeled per
	// tenant.
	resp, err := http.Get(ms.URL)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read scrape: %v", err)
	}
	body := string(raw)
	// Tenant counters are quiescent by now: the scrape must agree with
	// the in-process snapshots exactly.
	for line, want := range map[string]float64{
		fmt.Sprintf(`lcakp_gateway_tenant_queries_total{tenant="%s"}`, tenantA):       float64(ma.Queries),
		fmt.Sprintf(`lcakp_gateway_tenant_cache_hits_total{tenant="%s"}`, tenantB):    float64(mb.CacheHits),
		fmt.Sprintf(`lcakp_gateway_tenant_quota_rejects_total{tenant="%s"}`, tenantB): float64(mb.QuotaRejects),
		"lcakp_gateway_auth_rejects_total":                                            float64(m.AuthRejects),
	} {
		if got := scrapeValue(body, line); got != want {
			t.Errorf("scrape %s = %v, want %v", line, got, want)
		}
	}
	// Breaker counters keep moving (failed half-open probes re-trip), so
	// only monotonicity is checked.
	if got := scrapeValue(body, "lcakp_gateway_breaker_trips_total"); got < float64(m.BreakerTrips) {
		t.Errorf("scrape breaker trips = %v, want >= %d", got, m.BreakerTrips)
	}
	// The dead replica's breaker reads open (2) or, mid-probe, half-open
	// (1) — never closed.
	if got := scrapeValue(body, fmt.Sprintf(`lcakp_gateway_breaker_state{replica="%s"}`, addrs[0])); got < 1 {
		t.Errorf("breaker state for killed replica = %v, want non-closed", got)
	}
}
