package gateway

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
)

func TestBreakerTripAndProbeCycle(t *testing.T) {
	trips, closes := 0, 0
	b := &breaker{
		threshold: 3,
		cooldown:  10 * time.Millisecond,
		onTrip:    func() { trips++ },
		onClose:   func() { closes++ },
	}
	if b.current() != breakerClosed {
		t.Fatal("breaker should start closed")
	}

	// Failures below the threshold keep the circuit closed; a success
	// resets the streak.
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if b.current() != breakerClosed || trips != 0 {
		t.Fatalf("state = %v trips = %d after interleaved successes, want closed/0", b.current(), trips)
	}

	// The third consecutive failure trips the circuit.
	if !b.failure() {
		t.Fatal("threshold-reaching failure should report a trip")
	}
	if b.current() != breakerOpen || trips != 1 {
		t.Fatalf("state = %v trips = %d, want open/1", b.current(), trips)
	}

	// No probe inside the cooldown window.
	if b.tryProbe() {
		t.Fatal("probe allowed before cooldown elapsed")
	}
	time.Sleep(15 * time.Millisecond)
	if !b.tryProbe() {
		t.Fatal("probe refused after cooldown elapsed")
	}
	if b.current() != breakerHalfOpen {
		t.Fatalf("state after tryProbe = %v, want half-open", b.current())
	}

	// A failed probe reopens for another cooldown (and counts a trip).
	b.failure()
	if b.current() != breakerOpen || trips != 2 {
		t.Fatalf("state = %v trips = %d after failed probe, want open/2", b.current(), trips)
	}
	time.Sleep(15 * time.Millisecond)
	if !b.tryProbe() {
		t.Fatal("re-probe refused after second cooldown")
	}

	// A successful probe closes the circuit and counts the recovery.
	b.success()
	if b.current() != breakerClosed || closes != 1 {
		t.Fatalf("state = %v closes = %d after probe success, want closed/1", b.current(), closes)
	}
}

func TestTokenBucketAdmission(t *testing.T) {
	b := newTokenBucket(1000, 10) // starts full at 10 tokens
	t0 := b.last

	if !b.takeAt(t0, 10) {
		t.Fatal("full bucket refused its burst")
	}
	if b.takeAt(t0, 5) {
		t.Fatal("empty bucket admitted 5 tokens")
	}
	// All-or-nothing: a partial fit is a rejection, and the failed take
	// must not have drained anything.
	t5 := t0.Add(5 * time.Millisecond) // 5 tokens refill
	if b.takeAt(t5, 10) {
		t.Fatal("bucket admitted more than its refill")
	}
	if !b.takeAt(t5, 1) {
		t.Fatal("rejected take drained tokens; admission must be all-or-nothing")
	}
	// Refill caps at the burst.
	t35 := t0.Add(35 * time.Millisecond) // 34 tokens uncapped
	if b.takeAt(t35, 11) {
		t.Fatal("bucket exceeded its burst cap")
	}
	if !b.takeAt(t35, 10) {
		t.Fatal("bucket below burst after a long idle refill")
	}
}

func TestAuthorizerAllow(t *testing.T) {
	a := NewAuthorizer()
	ta := engine.TenantID{Instance: 1, Seed: 2}
	tb := engine.TenantID{Instance: 2, Seed: 5}
	a.Grant("alpha", ta)
	a.Grant("root") // wildcard

	if !a.Allow([]byte("alpha"), ta) {
		t.Error("granted key rejected for its tenant")
	}
	if a.Allow([]byte("alpha"), tb) {
		t.Error("key granted tenant a was allowed tenant b")
	}
	if !a.Allow([]byte("root"), ta) || !a.Allow([]byte("root"), tb) {
		t.Error("wildcard key rejected")
	}
	if a.Allow([]byte("wrong"), ta) {
		t.Error("unknown key allowed")
	}
	if a.Allow(nil, ta) || a.Allow([]byte{}, ta) {
		t.Error("empty key allowed")
	}
}

func TestParseAPIKeys(t *testing.T) {
	const file = `
# deployment keys
alpha 1:2
beta 1:2 2:5

root *
`
	a, err := ParseAPIKeys(strings.NewReader(file))
	if err != nil {
		t.Fatalf("ParseAPIKeys: %v", err)
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	ta := engine.TenantID{Instance: 1, Seed: 2}
	tb := engine.TenantID{Instance: 2, Seed: 5}
	if !a.Allow([]byte("alpha"), ta) || a.Allow([]byte("alpha"), tb) {
		t.Error("alpha grants wrong")
	}
	if !a.Allow([]byte("beta"), ta) || !a.Allow([]byte("beta"), tb) {
		t.Error("beta grants wrong")
	}
	if !a.Allow([]byte("root"), tb) {
		t.Error("root wildcard wrong")
	}

	for _, bad := range []string{
		"keyonly\n",
		"key notatenant\n",
		"key 1:\n",
		"key x:2\n",
	} {
		if _, err := ParseAPIKeys(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseAPIKeys(%q) accepted a malformed line", bad)
		}
	}
}

// TestGatewayQuotaRejects pins the admission path end to end in
// process: a rate-limited tenant sees ErrQuotaExceeded once its bucket
// drains, the rejects are counted per tenant and globally, and the
// default tenant is unaffected.
func TestGatewayQuotaRejects(t *testing.T) {
	addrs, _, _ := testFleet(t, 100, 1)
	tb := engine.TenantID{Instance: 0, Seed: uint64(testParams.Seed)}
	gw, err := New(Options{
		Replicas: addrs,
		Seed:     uint64(testParams.Seed),
		Tenants: []TenantOptions{
			// Reconfigures the default tenant with a tiny quota: frames
			// stay untenanted, so a plain single-tenant fleet serves it.
			{Instance: tb.Instance, Seed: tb.Seed, RateLimit: 0.001, Burst: 3},
		},
		HedgeDelay: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	ctx := context.Background()

	for k := 0; k < 3; k++ {
		if _, err := gw.InSolution(ctx, k); err != nil {
			t.Fatalf("admitted query %d: %v", k, err)
		}
	}
	if _, err := gw.InSolution(ctx, 99); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("query past burst: error = %v, want ErrQuotaExceeded", err)
	}
	// Batch admission is all-or-nothing.
	if _, err := gw.InSolutionBatch(ctx, []int{1, 2}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("batch past burst: error = %v, want ErrQuotaExceeded", err)
	}

	m := gw.Metrics()
	if m.QuotaRejects != 2 {
		t.Errorf("QuotaRejects = %d, want 2", m.QuotaRejects)
	}
	tm, ok := gw.TenantMetrics(tb)
	if !ok || tm.QuotaRejects != 2 || tm.Queries != 3 {
		t.Errorf("TenantMetrics = %+v (ok=%v), want 3 queries, 2 rejects", tm, ok)
	}
}

// TestGatewayResolveAuth drives Resolve directly: the TenantBackend
// seam must reject missing/unknown/ungranted keys (counting them) and
// route granted keys to the right tenant backend.
func TestGatewayResolveAuth(t *testing.T) {
	addrs, _, _ := testFleet(t, 100, 1)
	def := engine.TenantID{Instance: 0, Seed: uint64(testParams.Seed)}
	other := engine.TenantID{Instance: 7, Seed: 9}
	auth := NewAuthorizer()
	auth.Grant("alpha", def)
	gw, err := New(Options{
		Replicas:   addrs,
		Seed:       def.Seed,
		Tenants:    []TenantOptions{{Instance: other.Instance, Seed: other.Seed}},
		Auth:       auth,
		HedgeDelay: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	ctx := context.Background()

	// Untenanted frame with the granted key resolves to the default.
	b, err := gw.Resolve(ctx, cluster.TenantQuery{Key: []byte("alpha")})
	if err != nil {
		t.Fatalf("Resolve default: %v", err)
	}
	if b.(*tenant).id != def {
		t.Errorf("resolved tenant %s, want default %s", b.(*tenant).id, def)
	}
	// Missing key, wrong key, and a grant not covering the tenant are
	// all ErrUnauthorized.
	for name, q := range map[string]cluster.TenantQuery{
		"missing key":  {},
		"unknown key":  {Key: []byte("nope")},
		"wrong tenant": {Key: []byte("alpha"), ID: other, Tenanted: true},
	} {
		if _, err := gw.Resolve(ctx, q); !errors.Is(err, ErrUnauthorized) {
			t.Errorf("%s: error = %v, want ErrUnauthorized", name, err)
		}
	}
	if got := gw.Metrics().AuthRejects; got != 3 {
		t.Errorf("AuthRejects = %d, want 3", got)
	}
	// A tenant the gateway does not serve is unknown even with a
	// wildcard-ish grant structure.
	auth.Grant("omni")
	if _, err := gw.Resolve(ctx, cluster.TenantQuery{
		Key: []byte("omni"), ID: engine.TenantID{Instance: 99, Seed: 99}, Tenanted: true,
	}); !errors.Is(err, cluster.ErrUnknownTenant) {
		t.Errorf("unserved tenant: error = %v, want ErrUnknownTenant", err)
	}
	// Without auth rejections, the known tenants resolve.
	bt, err := gw.Resolve(ctx, cluster.TenantQuery{Key: []byte("omni"), ID: other, Tenanted: true})
	if err != nil {
		t.Fatalf("Resolve other: %v", err)
	}
	if bt.(*tenant).id != other {
		t.Errorf("resolved %s, want %s", bt.(*tenant).id, other)
	}
}

func TestTenantScopedWireScrape(t *testing.T) {
	addrs, _, _ := testFleet(t, 100, 1)
	def := engine.TenantID{Instance: 0, Seed: uint64(testParams.Seed)}
	gw, err := New(Options{Replicas: addrs, Seed: def.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	srv, err := cluster.NewQueryServer("127.0.0.1:0", gw)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer srv.Close()
	c, err := cluster.DialLCA(srv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer c.Close()

	ctx := context.Background()
	for _, item := range []int{3, 7, 3} { // repeat lands a cache hit
		if _, err := c.InSolution(ctx, item); err != nil {
			t.Fatalf("InSolution(%d): %v", item, err)
		}
	}

	// The tenant-scoped scrape answers from the gateway's per-tenant
	// counters (cluster.TenantMetricsProvider), unlabeled because the
	// scope is already one tenant.
	text, err := c.ScrapeTenantMetrics(ctx, def)
	if err != nil {
		t.Fatalf("ScrapeTenantMetrics: %v", err)
	}
	for _, want := range []string{
		"lcakp_gateway_tenant_queries_total 3",
		"lcakp_gateway_tenant_cache_hits_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, text)
		}
	}

	if _, err := c.ScrapeTenantMetrics(ctx, engine.TenantID{Instance: 9, Seed: 9}); !errors.Is(err, cluster.ErrRemote) {
		t.Errorf("unknown-tenant scrape error = %v, want ErrRemote", err)
	}
}
