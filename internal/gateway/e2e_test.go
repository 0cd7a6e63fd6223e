package gateway

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/obs"
	"lcakp/internal/rng"
)

// dialDirect opens a plain single-connection client on one replica —
// the pre-gateway access path, used as the comparison baseline.
func dialDirect(addr string) (*cluster.LCAClient, error) {
	return cluster.DialLCA(addr, 0)
}

// TestGatewayE2EKillReplicaMidStream is the subsystem's acceptance
// test: a 10k-query client stream against a 3-replica fleet, with one
// replica killed mid-stream. The stream must complete with zero
// caller-visible errors, every answer bit-identical to a
// single-replica baseline, at least one recorded failover, and a
// nonzero cache hit rate — availability and efficiency from the
// serving layer, correctness from Theorem 4.1 alone.
func TestGatewayE2EKillReplicaMidStream(t *testing.T) {
	const (
		n       = 2000
		queries = 10_000
		workers = 8
		// The kill lands while the cache is still warming (a uniform
		// stream needs ~n·ln(n) draws to see every item), so plenty of
		// cache-miss RPC traffic flows after it — the failover trigger.
		killAfter   = 2000
		cacheSize   = 4096
		killedIndex = 1
	)
	addrs, servers, baseline := testFleet(t, n, 3)

	// Baseline answers, computed once from an identically configured
	// local replica (bit-identical to the fleet by Definition 2.2).
	ctx := context.Background()
	expected := make([]bool, n)
	for i := 0; i < n; i++ {
		want, err := baseline.Query(ctx, i)
		if err != nil {
			t.Fatalf("baseline Query(%d): %v", i, err)
		}
		expected[i] = want
	}

	gw, err := New(Options{
		Replicas:       addrs,
		Seed:           testParams.Seed,
		CacheSize:      cacheSize,
		MaxAttempts:    4,
		RetryBackoff:   time.Millisecond,
		HedgeDelay:     -1, // isolate the failover signal from hedging
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	// The gateway's live counters on a /metrics endpoint, scraped
	// concurrently with the query stream: the operator's view of the
	// incident as it happens.
	reg := obs.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		t.Fatalf("RegisterMetrics: %v", err)
	}
	dbg, err := obs.NewDebugServer("127.0.0.1:0", reg, nil, nil)
	if err != nil {
		t.Fatalf("NewDebugServer: %v", err)
	}
	defer dbg.Close()
	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + dbg.Addr() + "/metrics")
		if err != nil {
			t.Fatalf("scrape /metrics: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read /metrics: %v", err)
		}
		return string(body)
	}
	scrapeDone := make(chan struct{})
	streamDone := make(chan struct{})
	var midStreamScrapes atomic.Int64
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-streamDone:
				return
			case <-time.After(10 * time.Millisecond):
				if strings.Contains(scrape(), "lcakp_gateway_queries_total") {
					midStreamScrapes.Add(1)
				}
			}
		}
	}()

	var issued atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	errs := make([]error, workers)
	mismatches := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w + 1)).Derive("e2e-queries")
			for q := 0; q < queries/workers; q++ {
				if issued.Add(1) == killAfter {
					killOnce.Do(func() {
						if err := servers[killedIndex].Close(); err != nil {
							t.Errorf("kill replica %d: %v", killedIndex, err)
						}
					})
				}
				item := src.Intn(n)
				got, err := gw.InSolution(ctx, item)
				if err != nil {
					errs[w] = err
					return
				}
				if got != expected[item] {
					mismatches[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	close(streamDone)
	<-scrapeDone

	if midStreamScrapes.Load() == 0 {
		t.Error("no successful mid-stream /metrics scrape")
	}
	// The post-incident scrape must show the incident: failovers fired
	// and the cache absorbed repeats, as nonzero counters in the
	// exposition text an external scraper would collect.
	exposition := scrape()
	for _, metric := range []string{"lcakp_gateway_failovers_total", "lcakp_gateway_cache_hits_total"} {
		found := false
		for _, line := range strings.Split(exposition, "\n") {
			if strings.HasPrefix(line, metric+" ") {
				found = true
				if strings.TrimPrefix(line, metric+" ") == "0" {
					t.Errorf("scrape shows %s, want a nonzero count", line)
				}
			}
		}
		if !found {
			t.Errorf("scrape missing %s; got:\n%s", metric, exposition)
		}
	}

	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d saw a caller-visible error: %v", w, err)
		}
	}
	for w, miss := range mismatches {
		if miss != 0 {
			t.Errorf("worker %d saw %d answers differing from the baseline", w, miss)
		}
	}
	m := gw.Metrics()
	if m.Failovers < 1 {
		t.Errorf("Failovers = %d, want >= 1 after killing a replica mid-stream", m.Failovers)
	}
	if m.CacheHits == 0 || m.CacheHitRate() <= 0 {
		t.Errorf("cache hit rate = %v (hits=%d misses=%d), want > 0", m.CacheHitRate(), m.CacheHits, m.CacheMisses)
	}
	if m.Queries != queries {
		t.Errorf("Queries = %d, want %d", m.Queries, queries)
	}
	// The killed replica must have dropped out of the healthy set.
	deadline := time.Now().Add(2 * time.Second)
	for len(gw.Healthy()) != 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if healthy := gw.Healthy(); len(healthy) != 2 {
		t.Errorf("Healthy() = %v, want the 2 surviving replicas", healthy)
	}
	t.Logf("e2e metrics: %+v (hit rate %.3f)", m, m.CacheHitRate())
}

// TestGatewayE2EForensicsKillReplica is the acceptance test for the
// query-forensics pipeline: a traced query stream against a 3-replica
// fleet with one replica killed mid-stream must leave (a) a slow-trace
// capture whose span tree carries the failover warn event with a
// nonzero probe count, (b) a latency exemplar on /debug/exemplars
// (with /metrics staying plain scrapeable text) whose trace ID
// resolves to a span dump on /debug/traces, and (c) the failover
// trace's own dump on /debug/traces holding the span with that event.
func TestGatewayE2EForensicsKillReplica(t *testing.T) {
	const (
		n           = 500
		queries     = 4000
		workers     = 8
		killAfter   = 800
		killedIndex = 1
	)
	addrs, servers, _ := testFleet(t, n, 3)

	tracer := obs.NewTracer(8192)
	// Threshold 0: capture is warn-event-triggered only, so every
	// retained trace is an incident artifact, not a latency outlier.
	slow := obs.NewSlowTraceLog(128, 0)
	tracer.SetSlowLog(slow)

	gw, err := New(Options{
		Replicas:       addrs,
		Seed:           testParams.Seed,
		CacheSize:      2048,
		MaxAttempts:    4,
		RetryBackoff:   time.Millisecond,
		HedgeDelay:     -1,
		HealthInterval: 100 * time.Millisecond,
		Tracer:         tracer,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	reg := obs.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		t.Fatalf("RegisterMetrics: %v", err)
	}
	if err := slow.RegisterMetrics(reg, ""); err != nil {
		t.Fatalf("slow RegisterMetrics: %v", err)
	}
	dbg, err := obs.NewDebugServer("127.0.0.1:0", reg, tracer.Recorder(), slow)
	if err != nil {
		t.Fatalf("NewDebugServer: %v", err)
	}
	defer dbg.Close()

	ctx := context.Background()
	var issued atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w + 100)).Derive("forensics-queries")
			for q := 0; q < queries/workers; q++ {
				if issued.Add(1) == killAfter {
					killOnce.Do(func() {
						if err := servers[killedIndex].Close(); err != nil {
							t.Errorf("kill replica %d: %v", killedIndex, err)
						}
					})
				}
				if _, err := gw.InSolution(ctx, src.Intn(n)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d saw a caller-visible error: %v", w, err)
		}
	}
	if f := gw.Metrics().Failovers; f < 1 {
		t.Fatalf("Failovers = %d, want >= 1 after killing a replica mid-stream", f)
	}

	// (a) The incident left a slow-trace capture whose span tree carries
	// the failover warn event, stamped with the probes paid so far.
	var failoverTrace obs.TraceID
	for _, st := range slow.Captured() {
		for _, s := range st.Spans {
			for _, ev := range s.Events {
				if ev.Name == "gateway.failover" && ev.Level == obs.LevelWarn {
					failoverTrace = st.Trace
					if ev.Probes < 1 {
						t.Errorf("failover event probes = %d, want >= 1 (the failed attempt was paid for)", ev.Probes)
					}
					if st.Reason == "" {
						t.Errorf("capture reason empty, want event:... or threshold")
					}
				}
			}
		}
	}
	if failoverTrace == 0 {
		t.Fatalf("no slow-trace capture carries a gateway.failover warn event; captured: %+v", slow.Captured())
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + dbg.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
		}
		return string(body)
	}

	// (b) /metrics must stay strictly plain Prometheus text (a single
	// exemplar annotation would fail a real scrape); the latency
	// exemplar lives on /debug/exemplars, and its trace resolves to a
	// full span dump on /debug/traces.
	scrape := get("/metrics")
	if _, err := obs.ParseExposition(strings.NewReader(scrape)); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if strings.Contains(scrape, " # {") {
		t.Errorf("/metrics carries an exemplar annotation — not scrapeable Prometheus text")
	}
	families, err := obs.ParseExposition(strings.NewReader(get("/debug/exemplars")))
	if err != nil {
		t.Fatalf("/debug/exemplars does not parse: %v", err)
	}
	var exemplarTrace string
	for _, f := range families {
		if f.Name != "lcakp_gateway_rpc_latency_seconds" {
			continue
		}
		for _, s := range f.Samples {
			if id := s.Exemplar.Label("trace_id"); id != "" {
				exemplarTrace = id
			}
		}
	}
	if exemplarTrace == "" {
		t.Fatal("no trace_id exemplar on lcakp_gateway_rpc_latency_seconds in /debug/exemplars")
	}
	dump := get("/debug/traces?trace=" + exemplarTrace)
	if !strings.Contains(dump, "name=gateway.query") {
		t.Errorf("/debug/traces?trace=%s does not resolve to a gateway.query span:\n%s", exemplarTrace, dump)
	}

	// (c) The failover trace itself resolves on /debug/traces: its dump
	// holds the span that carries the gateway.failover event.
	if dump := get("/debug/traces?trace=" + failoverTrace.String()); !strings.Contains(dump, "event=gateway.failover") {
		t.Errorf("/debug/traces?trace=%s has no span carrying the gateway.failover event:\n%s", failoverTrace, dump)
	}
}

// TestGatewayCachedThroughputAdvantage checks the serving claim behind
// the answer cache with a coarse in-test measurement: repeat queries
// answered from the gateway cache must be at least 5x faster than
// direct single-client queries against a replica (each direct query
// re-runs the full LCA pipeline; see BenchmarkGatewayVsDirect for the
// precise numbers).
func TestGatewayCachedThroughputAdvantage(t *testing.T) {
	addrs, _, _ := testFleet(t, 300, 1)
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	ctx := context.Background()
	const item = 7
	if _, err := gw.InSolution(ctx, item); err != nil { // warm the cache
		t.Fatalf("warm InSolution: %v", err)
	}

	const cachedQueries = 2000
	start := time.Now()
	for q := 0; q < cachedQueries; q++ {
		if _, err := gw.InSolution(ctx, item); err != nil {
			t.Fatalf("cached InSolution: %v", err)
		}
	}
	perCached := time.Since(start) / cachedQueries

	// Direct client on the raw replica: every query recomputes.
	direct, err := dialDirect(addrs[0])
	if err != nil {
		t.Fatalf("dial direct: %v", err)
	}
	defer direct.Close()
	const directQueries = 100
	start = time.Now()
	for q := 0; q < directQueries; q++ {
		if _, err := direct.InSolution(ctx, item); err != nil {
			t.Fatalf("direct InSolution: %v", err)
		}
	}
	perDirect := time.Since(start) / directQueries

	if perCached*5 > perDirect {
		t.Errorf("cached query %v vs direct %v: want >= 5x advantage", perCached, perDirect)
	}
	t.Logf("cached %v/query, direct %v/query (%.0fx)", perCached, perDirect, float64(perDirect)/float64(perCached))
}
