package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// testAccess builds a slice oracle over a generated workload.
func testAccess(t *testing.T, n int) (*oracle.SliceOracle, *workload.Generated) {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: 17})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	return acc, gen
}

func TestInstanceServerQueryAndInfo(t *testing.T) {
	acc, gen := testAccess(t, 200)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()

	remote, err := DialInstance(srv.Addr(), 0, 0)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()

	if remote.N() != 200 {
		t.Errorf("N() = %d, want 200", remote.N())
	}
	if remote.Capacity() != gen.Float.Capacity {
		t.Errorf("Capacity() = %v, want %v", remote.Capacity(), gen.Float.Capacity)
	}
	for _, i := range []int{0, 57, 199} {
		got, err := remote.QueryItem(context.Background(), i)
		if err != nil {
			t.Fatalf("QueryItem(%d): %v", i, err)
		}
		if got != gen.Float.Items[i] {
			t.Errorf("QueryItem(%d) = %+v, want %+v", i, got, gen.Float.Items[i])
		}
	}

	// Out-of-range queries surface as remote errors, not broken
	// connections.
	if _, err := remote.QueryItem(context.Background(), 9999); !errors.Is(err, ErrRemote) {
		t.Errorf("QueryItem(9999) error = %v, want ErrRemote", err)
	}
	// The connection must survive the error.
	if _, err := remote.QueryItem(context.Background(), 3); err != nil {
		t.Errorf("QueryItem(3) after remote error: %v", err)
	}
}

func TestRemoteSampleDistribution(t *testing.T) {
	acc, gen := testAccess(t, 50)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()

	remote, err := DialInstance(srv.Addr(), 0, 512)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()

	src := rng.New(5)
	const draws = 20000
	counts := make([]int, 50)
	for d := 0; d < draws; d++ {
		idx, item, err := remote.Sample(context.Background(), src)
		if err != nil {
			t.Fatalf("Sample draw %d: %v", d, err)
		}
		if idx < 0 || idx >= 50 || item != gen.Float.Items[idx] {
			t.Fatalf("Sample returned out-of-range index %d", idx)
		}
		counts[idx]++
	}
	// Weighted sampling: empirical frequency tracks profit within a
	// loose tolerance.
	for i, c := range counts {
		want := gen.Float.Items[i].Profit
		got := float64(c) / draws
		if diff := got - want; diff > 0.02 || diff < -0.02 {
			t.Errorf("item %d sampled with frequency %v, profit %v", i, got, want)
		}
	}
}

func TestFleetConsistency(t *testing.T) {
	acc, gen := testAccess(t, 400)
	fleet, err := NewFleet(acc, 3, core.Params{Epsilon: 0.2, Seed: 11})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer fleet.Close()

	queries := make([]int, 0, 40)
	for i := 0; i < 40; i++ {
		queries = append(queries, (i*37)%gen.Float.N())
	}
	rep, err := fleet.CheckConsistency(context.Background(), queries)
	if err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	if rep.Queries != 40 || rep.Replicas != 3 {
		t.Fatalf("report shape %+v", rep)
	}
	// Same seed, same params: replicas answer identically w.p. 1-eps
	// per rule computation; require strong but not perfect agreement.
	if rep.AgreementRate() < 0.9 {
		t.Errorf("cross-replica agreement %.3f < 0.9", rep.AgreementRate())
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	acc, _ := testAccess(t, 20)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Dialing a closed server fails promptly.
	if _, err := DialInstance(srv.Addr(), 0, 0); err == nil {
		t.Error("DialInstance succeeded against closed server")
	}
}

// testTenant is the tenant newTestLCAServer's replica serves.
var testTenant = engine.TenantID{Instance: 42, Seed: 2}

// newTestLCAServer starts a one-tenant LCA replica server (testTenant)
// over the given access.
func newTestLCAServer(t *testing.T, acc *oracle.SliceOracle) *MultiLCAServer {
	t.Helper()
	lca, err := core.NewLCAKP(acc, core.Params{Epsilon: 0.25, Seed: testTenant.Seed})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	srv, err := NewLCAServer("127.0.0.1:0", testTenant, engine.New(lca))
	if err != nil {
		t.Fatalf("NewLCAServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestLCAServerAnswersQueries(t *testing.T) {
	acc, gen := testAccess(t, 100)
	srv := newTestLCAServer(t, acc)
	client, err := DialLCA(srv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()
	for _, i := range []int{0, 50, 99} {
		if _, err := client.InSolution(context.Background(), i); err != nil {
			t.Fatalf("InSolution(%d): %v", i, err)
		}
	}
	// Out-of-range index surfaces as a remote error and the connection
	// survives.
	if _, err := client.InSolution(context.Background(), gen.Float.N()+5); err == nil {
		t.Error("out-of-range query succeeded")
	}
	if _, err := client.InSolution(context.Background(), 1); err != nil {
		t.Errorf("query after remote error: %v", err)
	}
}

func TestFleetSizeValidation(t *testing.T) {
	acc, _ := testAccess(t, 20)
	if _, err := NewFleet(acc, 0, core.Params{Epsilon: 0.2, Seed: 1}); err == nil {
		t.Error("fleet of size 0 accepted")
	}
}

func TestInSolutionBatch(t *testing.T) {
	acc, gen := testAccess(t, 300)
	srv := newTestLCAServer(t, acc)
	client, err := DialLCA(srv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	indices := []int{0, 50, 299, 50, 0} // duplicates on purpose
	answers, err := client.InSolutionBatch(context.Background(), indices)
	if err != nil {
		t.Fatalf("InSolutionBatch: %v", err)
	}
	if len(answers) != len(indices) {
		t.Fatalf("got %d answers for %d queries", len(answers), len(indices))
	}
	// Duplicates within a batch share one rule: must agree exactly.
	if answers[1] != answers[3] || answers[0] != answers[4] {
		t.Error("duplicate indices disagreed within one batch")
	}
	// Empty batch is a no-op.
	empty, err := client.InSolutionBatch(context.Background(), nil)
	if err != nil || empty != nil {
		t.Errorf("empty batch: %v, %v", empty, err)
	}
	// Out-of-range index in a batch surfaces as a remote error.
	if _, err := client.InSolutionBatch(context.Background(), []int{0, gen.Float.N() + 7}); err == nil {
		t.Error("out-of-range batch succeeded")
	}
}

func TestFleetConsistencyBatched(t *testing.T) {
	acc, gen := testAccess(t, 400)
	fleet, err := NewFleet(acc, 3, core.Params{Epsilon: 0.2, Seed: 11})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer fleet.Close()

	queries := make([]int, 0, 30)
	for i := 0; i < 30; i++ {
		queries = append(queries, (i*13)%gen.Float.N())
	}
	rep, err := fleet.CheckConsistencyBatched(context.Background(), queries)
	if err != nil {
		t.Fatalf("CheckConsistencyBatched: %v", err)
	}
	if rep.AgreementRate() < 0.9 {
		t.Errorf("batched cross-replica agreement %.3f < 0.9", rep.AgreementRate())
	}
	// Batched answers should be far cheaper per query than unbatched.
	unbatched, err := fleet.CheckConsistency(context.Background(), queries)
	if err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	if rep.PerQuery*3 > unbatched.PerQuery {
		t.Logf("note: batched %v/query vs unbatched %v/query (expected >=3x gain; timing noise possible)",
			rep.PerQuery, unbatched.PerQuery)
	}
}

func TestServerStats(t *testing.T) {
	acc, _ := testAccess(t, 50)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()

	remote, err := DialInstance(srv.Addr(), 0, 0)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()
	for i := 0; i < 5; i++ {
		if _, err := remote.QueryItem(context.Background(), i); err != nil {
			t.Fatalf("QueryItem: %v", err)
		}
	}
	_, _ = remote.QueryItem(context.Background(), 999) // remote error

	stats := srv.Stats()
	if stats.ConnsAccepted != 1 {
		t.Errorf("ConnsAccepted = %d, want 1", stats.ConnsAccepted)
	}
	// 1 info (at dial) + 5 queries + 1 failing query.
	if stats.RequestsServed != 7 {
		t.Errorf("RequestsServed = %d, want 7", stats.RequestsServed)
	}
	if stats.ErrorsReturned != 1 {
		t.Errorf("ErrorsReturned = %d, want 1", stats.ErrorsReturned)
	}
}

func TestServerLogging(t *testing.T) {
	acc, _ := testAccess(t, 20)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()

	var buf bytes.Buffer
	var mu sync.Mutex
	srv.SetLogger(slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil)))

	remote, err := DialInstance(srv.Addr(), 0, 0)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	_, _ = remote.QueryItem(context.Background(), 500) // out of range → logged error
	_ = remote.Close()
	_ = srv.Close()

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "conn accepted") {
		t.Errorf("log missing accept event:\n%s", out)
	}
	if !strings.Contains(out, "request error") {
		t.Errorf("log missing error event:\n%s", out)
	}
}

// lockedWriter serializes concurrent log writes for the test buffer.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestRemoteAccessStreamEviction(t *testing.T) {
	// Exceeding maxStreams resets the prefetch map rather than growing
	// without bound; sampling must keep working across the reset.
	acc, _ := testAccess(t, 50)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()
	remote, err := DialInstance(srv.Addr(), 0, 8)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()

	for s := 0; s < maxStreams+20; s++ {
		src := rng.New(uint64(s))
		if _, _, err := remote.Sample(context.Background(), src); err != nil {
			t.Fatalf("stream %d: %v", s, err)
		}
	}
}

func TestDialInstanceUnreachable(t *testing.T) {
	if _, err := DialInstance("127.0.0.1:1", 500*time.Millisecond, 0); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestPingHealthCheck(t *testing.T) {
	acc, _ := testAccess(t, 50)
	instSrv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer instSrv.Close()
	remote, err := DialInstance(instSrv.Addr(), 0, 0)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()
	if err := remote.Ping(context.Background()); err != nil {
		t.Errorf("instance Ping: %v", err)
	}

	lcaSrv := newTestLCAServer(t, acc)
	client, err := DialLCA(lcaSrv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()
	if err := client.Ping(context.Background()); err != nil {
		t.Errorf("replica Ping: %v", err)
	}
	// Ping against a closed server fails.
	_ = lcaSrv.Close()
	if err := client.Ping(context.Background()); err == nil {
		t.Error("Ping succeeded against closed server")
	}
}

// TestMsgMetricsScrape covers the wire scrape path: a server without a
// registry answers with a remote error, and once a registry is
// attached the scrape returns the Prometheus exposition including the
// server's own counters.
func TestMsgMetricsScrape(t *testing.T) {
	acc, _ := testAccess(t, 100)
	srv := newTestLCAServer(t, acc)

	client, err := DialLCA(srv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	if _, err := client.ScrapeMetrics(context.Background()); !errors.Is(err, ErrRemote) {
		t.Fatalf("scrape without registry: error = %v, want ErrRemote", err)
	}

	srv.SetRegistry(obs.NewRegistry())
	if _, err := client.InSolution(context.Background(), 1); err != nil {
		t.Fatalf("InSolution: %v", err)
	}
	out, err := client.ScrapeMetrics(context.Background())
	if err != nil {
		t.Fatalf("ScrapeMetrics: %v", err)
	}
	for _, want := range []string{
		"lcakp_server_conns_accepted_total 1",
		"lcakp_server_requests_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q; got:\n%s", want, out)
		}
	}
	// The scrape itself travels over the same connection as the queries:
	// the connection must remain usable afterwards.
	if _, err := client.InSolution(context.Background(), 2); err != nil {
		t.Errorf("query after scrape: %v", err)
	}
}
