// Distributed: the deployment the LCA model was designed for.
//
// A single instance server holds a large Zipf-profit instance (think:
// one catalog service). Four LCA replica servers run against it over
// TCP — on different ports here, but nothing would change across
// machines — sharing only a 64-bit seed. A client fans the same
// membership queries out to all replicas in different orders and
// verifies they answer as one, with no coordination, no state, and no
// replica ever having seen more than a sublinear sample of the
// instance.
//
// The second act fronts the fleet with a serving gateway — pooled
// connections, failover, and a deterministic answer cache — served
// over the wire protocol, and kills a replica mid-stream: the
// client-visible stream never errors and never changes an answer,
// because any surviving replica serves the same C(I, r) (Theorem
// 4.1). It closes by scraping the gateway's serving counters over the
// same connection the queries travelled on (MsgMetrics).
//
// The third act is multi-tenant: two catalogs times two seeds — four
// distinct solutions C(I, r) — served through one gateway address by
// one homogeneous replica fleet, each replica deriving any tenant on
// demand from a TenantTable. A replica dies mid-stream and every
// tenant's answers stay bit-identical to its own local baseline.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"lcakp"
)

func main() {
	const (
		n        = 50_000
		replicas = 4
		queries  = 30
		seed     = 7
	)

	gen, err := lcakp.GenerateWorkload(lcakp.WorkloadSpec{Name: "zipf", N: n, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	access, err := lcakp.NewSliceOracle(gen.Float)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("starting instance server (n=%d) and %d LCA replicas over TCP...\n", n, replicas)
	fleet, err := lcakp.NewFleet(access, replicas, lcakp.Params{Epsilon: 0.15, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()

	fmt.Printf("instance store: %s\n", fleet.Instance.Addr())
	for i, r := range fleet.Replicas {
		fmt.Printf("replica %d:      %s\n", i, r.Addr())
	}

	queryIdx := make([]int, queries)
	for i := range queryIdx {
		queryIdx[i] = (i * 104729) % n
	}
	rep, err := fleet.CheckConsistency(context.Background(), queryIdx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d queries x %d replicas (each replica saw a different query order):\n",
		rep.Queries, rep.Replicas)
	fmt.Printf("  unanimous answers: %d/%d (%.1f%%)\n",
		rep.Agreements, rep.Queries, 100*rep.AgreementRate())
	fmt.Printf("  items in solution: %.1f%%\n", 100*rep.YesFraction)
	fmt.Printf("  latency:           %v per query (each query re-runs the full LCA pipeline)\n",
		rep.PerQuery.Round(1000))

	// Act two: one gateway address in front of the whole fleet, served
	// over the same wire protocol the replicas speak, with its serving
	// counters registered for scraping. Clients keep a single
	// connection; the gateway pools, fails over, and caches. Mid-stream
	// we kill a replica — the stream must not notice.
	addrs := make([]string, len(fleet.Replicas))
	for i, r := range fleet.Replicas {
		addrs[i] = r.Addr()
	}
	gw, err := lcakp.NewGateway(lcakp.GatewayOptions{Replicas: addrs, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	reg := lcakp.NewMetricsRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		log.Fatal(err)
	}
	front, err := lcakp.NewQueryServer("127.0.0.1:0", gw)
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()
	front.SetRegistry(reg)

	client, err := lcakp.DialLCA(front.Addr(), 0)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// The stream visits 2*queries distinct items (cache misses), then
	// revisits them all (cache hits); the kill lands while misses are
	// still flowing, so the gateway must fail over live RPCs.
	stream := 4 * queries
	fmt.Printf("\ngateway at %s over %d replicas; streaming %d queries, killing replica 0 mid-stream...\n",
		front.Addr(), len(addrs), stream)
	ctx := context.Background()
	errs := 0
	for q := 0; q < stream; q++ {
		if q == queries { // mid-stream, mid-warmup: a replica crashes
			fleet.Replicas[0].Close()
		}
		item := ((q % (2 * queries)) * 104729) % n
		if _, err := client.InSolution(ctx, item); err != nil {
			errs++
		}
	}
	m := gw.Metrics()
	fmt.Printf("  caller-visible errors: %d/%d (death absorbed: %d failovers, %d retries, health checks)\n",
		errs, stream, m.Failovers, m.Retries)
	fmt.Printf("  cache hit rate:        %.1f%% — answers are immutable, so caching is always safe\n",
		100*m.CacheHitRate())
	fmt.Printf("  healthy replicas:      %d of %d\n", len(gw.Healthy()), len(addrs))

	// The same connection that streamed the queries scrapes the
	// gateway's metrics over the wire protocol — no HTTP port needed.
	exposition, err := client.ScrapeMetrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwire-scraped metrics snapshot (lcakp_gateway_*):\n")
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "lcakp_gateway_") &&
			(strings.Contains(line, "_failovers_total") ||
				strings.Contains(line, "_cache_hits_total") ||
				strings.Contains(line, "_queries_total") ||
				strings.Contains(line, "_healthy_replicas")) {
			fmt.Printf("  %s\n", line)
		}
	}

	actThree()
}

// actThree is multi-tenant serving: two catalogs x two seeds = four
// solutions C(I, r) behind one gateway address. Every replica can
// derive every tenant on demand (a TenantTable keyed by (instance,
// seed)), so the fleet stays homogeneous — kill any replica and any
// survivor answers any tenant, bit-for-bit.
func actThree() {
	const (
		nSmall   = 20_000
		replicas = 3
		perTen   = 20
	)

	// Two instance "catalogs", addressed by an instance hash.
	catalogs := make(map[uint64]lcakp.Access)
	for hash, spec := range map[uint64]lcakp.WorkloadSpec{
		1: {Name: "zipf", N: nSmall, Seed: 99},
		2: {Name: "uniform", N: nSmall, Seed: 31},
	} {
		gen, err := lcakp.GenerateWorkload(spec)
		if err != nil {
			log.Fatal(err)
		}
		access, err := lcakp.NewSliceOracle(gen.Float)
		if err != nil {
			log.Fatal(err)
		}
		catalogs[hash] = access
	}

	tenants := []lcakp.TenantID{
		{Instance: 1, Seed: 7}, {Instance: 1, Seed: 8},
		{Instance: 2, Seed: 7}, {Instance: 2, Seed: 8},
	}
	params := func(id lcakp.TenantID) lcakp.Params {
		return lcakp.Params{Epsilon: 0.25, Seed: id.Seed}
	}

	// Local baselines: the ground truth each tenant's answers must match.
	baselines := make(map[lcakp.TenantID]*lcakp.LCAKP)
	for _, id := range tenants {
		lca, err := lcakp.NewLCAKP(catalogs[id.Instance], params(id))
		if err != nil {
			log.Fatal(err)
		}
		baselines[id] = lca
	}

	// A homogeneous multi-tenant fleet: each replica derives any tenant
	// on first query from the shared catalogs, which never churn, so
	// epoch 0 is the only one there is.
	factory := func(ctx context.Context, vt lcakp.VersionedTenant) (lcakp.TenantState, error) {
		access, ok := catalogs[vt.Tenant.Instance]
		if !ok || vt.Epoch != 0 {
			return lcakp.TenantState{}, fmt.Errorf("no catalog for %s", vt)
		}
		lca, err := lcakp.NewLCAKP(access, params(vt.Tenant))
		if err != nil {
			return lcakp.TenantState{}, err
		}
		return lcakp.TenantState{Engine: lcakp.NewEngine(lca)}, nil
	}
	addrs := make([]string, replicas)
	servers := make([]*lcakp.MultiLCAServer, replicas)
	for i := range servers {
		table := lcakp.NewVersionedTenantTable(factory, 16)
		srv, err := lcakp.NewMultiLCAServer("127.0.0.1:0", table)
		if err != nil {
			log.Fatal(err)
		}
		srv.SetDefaultTenant(tenants[0])
		defer srv.Close()
		defer table.Close()
		servers[i] = srv
		addrs[i] = srv.Addr()
	}

	// One gateway serves all four tenants; tenants[0] doubles as the
	// default for untenanted clients.
	opts := lcakp.GatewayOptions{
		Replicas: addrs,
		Instance: tenants[0].Instance,
		Seed:     tenants[0].Seed,
	}
	for _, id := range tenants[1:] {
		opts.Tenants = append(opts.Tenants,
			lcakp.GatewayTenantOptions{Instance: id.Instance, Seed: id.Seed})
	}
	gw, err := lcakp.NewGateway(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	front, err := lcakp.NewQueryServer("127.0.0.1:0", gw)
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()

	fmt.Printf("\nmulti-tenant gateway at %s: %d tenants (2 catalogs x 2 seeds) over %d replicas\n",
		front.Addr(), len(tenants), replicas)

	// One connection per tenant, interleaved queries, a replica killed
	// mid-stream — and every answer must equal the local baseline bit
	// for bit (Theorem 4.1, per tenant).
	ctx := context.Background()
	clients := make(map[lcakp.TenantID]*lcakp.LCAClient)
	for _, id := range tenants {
		c, err := lcakp.DialLCA(front.Addr(), 0)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		c.SetTenant(id)
		clients[id] = c
	}
	mismatches, errs := 0, 0
	for q := 0; q < perTen; q++ {
		if q == perTen/2 {
			servers[0].Close() // mid-stream crash, all four tenants affected
		}
		item := (q * 104729) % nSmall
		for _, id := range tenants {
			want, err := baselines[id].Query(ctx, item)
			if err != nil {
				log.Fatal(err)
			}
			got, err := clients[id].InSolution(ctx, item)
			if err != nil {
				errs++
				continue
			}
			if got != want {
				mismatches++
			}
		}
	}
	fmt.Printf("  %d queries x %d tenants through one gateway, replica 0 killed mid-stream:\n",
		perTen, len(tenants))
	fmt.Printf("  answers differing from each tenant's local baseline: %d (errors: %d)\n",
		mismatches, errs)

	fmt.Printf("  per-tenant serving counters:\n")
	for _, id := range gw.Tenants() {
		tm, ok := gw.TenantMetrics(id)
		if !ok {
			continue
		}
		fmt.Printf("    tenant %-8s %3d queries, %2d cache hits\n", id.String()+":", tm.Queries, tm.CacheHits)
	}
}
