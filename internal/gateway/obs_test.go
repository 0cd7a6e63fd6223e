package gateway

import (
	"context"
	"strings"
	"testing"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/workload"
)

func TestGatewayWarmPreloadsCache(t *testing.T) {
	addrs, _, baseline := testFleet(t, 500, 2)
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1, MaxBatch: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	ctx := context.Background()
	items := make([]int, 0, 200)
	for i := 0; i < 200; i++ {
		items = append(items, i)
	}
	// Duplicates must be fetched once.
	items = append(items, 0, 1, 2)

	warmed, err := gw.Warm(ctx, items)
	if err != nil {
		t.Fatalf("Warm: %v", err)
	}
	if warmed != 200 {
		t.Errorf("Warm warmed %d entries, want 200 (duplicates skipped)", warmed)
	}
	if m := gw.Metrics(); m.Warmed != 200 {
		t.Errorf("Metrics().Warmed = %d, want 200", m.Warmed)
	}

	// Every warmed item must now be a cache hit with the correct answer.
	for _, i := range items[:200] {
		got, err := gw.InSolution(ctx, i)
		if err != nil {
			t.Fatalf("InSolution(%d): %v", i, err)
		}
		want, err := baseline.Query(ctx, i)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", i, err)
		}
		if got != want {
			t.Errorf("InSolution(%d) = %v, want %v", i, got, want)
		}
	}
	if m := gw.Metrics(); m.CacheHits != 200 || m.CacheMisses != 0 {
		t.Errorf("after warm: hits=%d misses=%d, want 200 hits and 0 misses", m.CacheHits, m.CacheMisses)
	}

	// Re-warming resident items is free.
	if again, err := gw.Warm(ctx, items); err != nil || again != 0 {
		t.Errorf("second Warm = (%d, %v), want (0, nil)", again, err)
	}
}

func TestGatewayWarmWithoutCache(t *testing.T) {
	addrs, _, _ := testFleet(t, 50, 1)
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, CacheSize: -1, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	if _, err := gw.Warm(context.Background(), []int{1, 2}); err == nil {
		t.Error("Warm with caching disabled succeeded, want error")
	}
}

// TestTracePropagatesGatewayToReplica is the acceptance check for trace
// propagation: one gateway query must yield at least two spans — the
// gateway's and the replica engine's, in different recorders on the two
// sides of the wire — sharing a single trace ID.
func TestTracePropagatesGatewayToReplica(t *testing.T) {
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: 300, Seed: 17})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	lca, err := core.NewLCAKP(acc, testParams)
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	eng := engine.New(lca)
	replicaTracer := obs.NewTracer(64)
	eng.SetTracer(replicaTracer)
	srv, err := cluster.NewLCAServer("127.0.0.1:0", testTenant, eng)
	if err != nil {
		t.Fatalf("NewLCAServer: %v", err)
	}
	defer srv.Close()

	gwTracer := obs.NewTracer(64)
	gw, err := New(Options{
		Replicas:   []string{srv.Addr()},
		Seed:       testParams.Seed,
		HedgeDelay: -1,
		Tracer:     gwTracer,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	if _, err := gw.InSolution(context.Background(), 7); err != nil {
		t.Fatalf("InSolution: %v", err)
	}

	gwSpans := gwTracer.Recorder().Spans()
	if len(gwSpans) != 1 || gwSpans[0].Name != "gateway.query" {
		t.Fatalf("gateway recorder = %+v, want one gateway.query span", gwSpans)
	}
	trace := gwSpans[0].Trace
	replicaSpans := replicaTracer.Recorder().Trace(trace)
	if len(replicaSpans) == 0 {
		t.Fatalf("replica recorder has no spans for trace %s; all spans: %+v",
			trace, replicaTracer.Recorder().Spans())
	}
	for _, s := range replicaSpans {
		if s.Name != "engine.querybatch" {
			t.Errorf("replica span %+v, want engine.querybatch", s)
		}
		if s.Parent != gwSpans[0].ID {
			t.Errorf("replica span parent = %s, want the gateway span %s", s.Parent, gwSpans[0].ID)
		}
	}

	// Cached repeats trace entirely inside the gateway: no replica hop,
	// but still one span per query.
	if _, err := gw.InSolution(context.Background(), 7); err != nil {
		t.Fatalf("cached InSolution: %v", err)
	}
	if got := gwTracer.Recorder().Total(); got != 2 {
		t.Errorf("gateway recorded %d spans after 2 queries, want 2", got)
	}
}

func TestGatewayRegisterMetricsExposition(t *testing.T) {
	addrs, _, _ := testFleet(t, 100, 1)
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	reg := obs.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		t.Fatalf("RegisterMetrics: %v", err)
	}
	// Registering twice on one registry is a caller bug and must error,
	// not panic.
	if err := gw.RegisterMetrics(reg); err == nil {
		t.Error("second RegisterMetrics on the same registry succeeded")
	}

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := gw.InSolution(ctx, 3); err != nil {
			t.Fatalf("InSolution: %v", err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	// Latency samples the fetch path only: 5 queries = 1 miss + 4 hits,
	// and hits never read the clock.
	for _, want := range []string{
		"lcakp_gateway_queries_total 5",
		"lcakp_gateway_cache_hits_total 4",
		"lcakp_gateway_query_latency_seconds_count 1",
		"lcakp_gateway_healthy_replicas",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
}
