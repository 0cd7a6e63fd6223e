// Command lcagateway fronts a fleet of LCA replica servers with one
// address speaking the same wire protocol the replicas speak. Behind
// it: pooled connections, health-checked failover, power-of-two-
// choices load balancing, optional hedged requests, and a
// deterministic answer cache — all consistency-safe because every
// replica answers from the same C(I, r) (Theorem 4.1). Concurrent
// misses need no batching at the gateway: each replica shares one
// in-flight derivation among the queries that overlap it.
//
// Start replicas (see lcaserver), then the gateway with the replicas'
// tenant: its -instance-id and -seed must equal their -instance-hash
// and -seed, because every frame the gateway sends a replica names
// (tenant, epoch), and a replica serving another tenant answers with
// an unknown-tenant error:
//
//	lcagateway -addr 127.0.0.1:7080 \
//	    -replicas 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073 \
//	    -seed 7 -cache 65536 -pool 4 -hedge 0
//
// and point unmodified clients at it:
//
//	lcaclient -replicas 127.0.0.1:7080 -random 20 -n 100000
//
// Killing and restarting replicas under load is invisible to clients
// except as latency. The gateway runs until SIGINT/SIGTERM and prints
// its serving metrics on shutdown.
//
// Multi-tenant serving: -tenants names the explicitly served tenants
// beyond the default (-instance-id, -seed) one, each with an optional
// per-tenant admission quota. One tenant per line:
//
//	# instance-hash seed [rate=<qps>] [burst=<n>]
//	3 5
//	3 9 rate=200 burst=80
//
// -api-keys turns on authentication from a key file (see lcaclient
// -api-key); each line maps a key to the tenants it may query:
//
//	# key tenant... ("*" grants all tenants)
//	alpha-secret 3:5 3:9
//	admin-secret *
//
// Materialized artifacts: -store mounts a directory of solution
// artifacts (see lcaserver -materialize). At startup each tenant's
// artifact of its current epoch is installed and answers straight from
// its bits; other misses consult the local store before the fleet, and
// the gateway serves its artifacts to peer gateways. -peers names the
// other gateways of a peer-fill ring, which assigns each tenant one
// owner: a gateway that does not own a tenant pulls the tenant's
// artifact whole from the owner, at startup and on a store miss, and
// persists it locally before any replica is asked. A fetch is checked
// like a read, so with -api-keys every gateway of the ring loads the
// same key file and presents a key it grants the tenant:
//
//	lcagateway -addr 127.0.0.1:7080 -store /var/lib/lcakp/artifacts \
//	    -peers 127.0.0.1:7081,127.0.0.1:7082 -replicas ...
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"lcakp/internal/cluster"
	"lcakp/internal/gateway"
	"lcakp/internal/obs"
	"lcakp/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, waitForSignal))
}

// waitForSignal blocks until SIGINT or SIGTERM.
func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
}

// parseGatewayTenants reads the gateway tenant manifest: one tenant
// per line as "<instance-hash> <seed> [rate=<qps>] [burst=<n>]", with
// "#" comments and blank lines skipped.
func parseGatewayTenants(path string) ([]gateway.TenantOptions, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tenant manifest: %w", err)
	}
	defer f.Close()
	var opts []gateway.TenantOptions
	seen := make(map[[2]uint64]bool)
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf(`tenant manifest %s:%d: want "<instance-hash> <seed> [rate=<qps>] [burst=<n>]"`, path, lineNo)
		}
		to := gateway.TenantOptions{}
		if to.Instance, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("tenant manifest %s:%d: bad instance hash %q: %w", path, lineNo, fields[0], err)
		}
		if to.Seed, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("tenant manifest %s:%d: bad seed %q: %w", path, lineNo, fields[1], err)
		}
		for _, opt := range fields[2:] {
			switch key, val, ok := strings.Cut(opt, "="); {
			case !ok:
				return nil, fmt.Errorf("tenant manifest %s:%d: bad option %q (want rate=<qps> or burst=<n>)", path, lineNo, opt)
			case key == "rate":
				if to.RateLimit, err = strconv.ParseFloat(val, 64); err != nil {
					return nil, fmt.Errorf("tenant manifest %s:%d: bad rate %q: %w", path, lineNo, val, err)
				}
			case key == "burst":
				if to.Burst, err = strconv.Atoi(val); err != nil {
					return nil, fmt.Errorf("tenant manifest %s:%d: bad burst %q: %w", path, lineNo, val, err)
				}
			default:
				return nil, fmt.Errorf("tenant manifest %s:%d: unknown option %q", path, lineNo, key)
			}
		}
		id := [2]uint64{to.Instance, to.Seed}
		if seen[id] {
			return nil, fmt.Errorf("tenant manifest %s:%d: tenant %d:%d declared twice", path, lineNo, to.Instance, to.Seed)
		}
		seen[id] = true
		opts = append(opts, to)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tenant manifest %s: %w", path, err)
	}
	return opts, nil
}

// run executes the CLI and returns the process exit code. wait blocks
// until shutdown is requested (injected for tests).
func run(args []string, stdout, stderr io.Writer, wait func()) int {
	flags := flag.NewFlagSet("lcagateway", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		addr     = flags.String("addr", "127.0.0.1:7080", "listen address")
		replicas = flags.String("replicas", "", "comma-separated replica server addresses (required)")
		instance = flags.Uint64("instance-id", 0, "instance identity of the default tenant: with -seed it keys the answer cache and names the tenant the gateway's replica frames address, so it must match the replicas' -instance-hash")
		seed     = flags.Uint64("seed", 1, "shared LCA seed of the fleet (answer-cache key)")
		pool     = flags.Int("pool", gateway.DefaultPoolSize, "pooled connections per replica")
		cache    = flags.Int("cache", gateway.DefaultCacheSize, "answer-cache entries (negative disables)")
		hedge    = flags.Duration("hedge", -1, "hedge delay: >0 fixed, 0 adaptive p95, negative disables")
		retries  = flags.Int("attempts", gateway.DefaultMaxAttempts, "max replica attempts per query")
		backoff  = flags.Duration("backoff", gateway.DefaultRetryBackoff, "base retry backoff")
		health   = flags.Duration("health", gateway.DefaultHealthInterval, "replica health-check interval")
		rpcTO    = flags.Duration("rpc-timeout", 0, "per-RPC timeout towards replicas (0 = connection default)")
		timeout  = flags.Duration("timeout", 0, "per-request deadline for downstream clients (0 = unbounded)")
		verbose  = flags.Bool("verbose", false, "log connection and error events to stderr")
		debug    = flags.String("debug-addr", "", "serve /metrics, /debug/traces, /debug/slow, and /debug/pprof on this HTTP address (empty = off)")
		traceN   = flags.Int("trace", 0, "record per-query trace spans, retaining the last N, and dump them at shutdown (0 = off)")
		slowTh   = flags.Duration("slow-threshold", 0, "force-retain complete span trees for queries slower than this; implies -trace (0 = capture error/warn-event traces only when tracing)")
		warm     = flags.Int("warm", 0, "preload the answer cache with items [0, N) at startup (0 = off)")
		tenants  = flags.String("tenants", "", "tenant manifest file: one \"<instance-hash> <seed> [rate=<qps>] [burst=<n>]\" per line (empty = default tenant only)")
		apiKeys  = flags.String("api-keys", "", "API-key file: one \"<key> <instance>:<seed>...\" per line (empty = no authentication)")
		storeDir = flags.String("store", "", "materialized-artifact directory: install each tenant's artifact at startup and serve it straight from its bits, look up other misses in it before the replicas, and serve its artifacts to peers (empty = off)")
		peers    = flags.String("peers", "", "comma-separated peer gateway addresses for the artifact peer-fill ring (requires -store)")
		selfAddr = flags.String("self", "", "this gateway's advertised address in the peer ring (default: the -addr value)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *replicas == "" {
		fmt.Fprintln(stderr, "lcagateway: -replicas is required (comma-separated replica addresses)")
		return 1
	}
	addrsList := []string{}
	for _, a := range strings.Split(*replicas, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrsList = append(addrsList, a)
		}
	}

	var tenantOpts []gateway.TenantOptions
	if *tenants != "" {
		var err error
		if tenantOpts, err = parseGatewayTenants(*tenants); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	var auth *gateway.Authorizer
	if *apiKeys != "" {
		var err error
		if auth, err = gateway.LoadAPIKeys(*apiKeys); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	var artifacts *store.Store
	var peerList []string
	if *peers != "" && *storeDir == "" {
		fmt.Fprintln(stderr, "lcagateway: -peers requires -store (peer fill lands fetched artifacts in the local store)")
		return 1
	}
	if *storeDir != "" {
		var err error
		if artifacts, err = store.New(*storeDir, 0); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer artifacts.Close()
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	self := *selfAddr
	if self == "" {
		self = *addr
	}

	var tracer *obs.Tracer
	if *traceN > 0 || *slowTh > 0 {
		n := *traceN
		if n <= 0 {
			n = 512 // -slow-threshold implies tracing: slow capture needs spans
		}
		tracer = obs.NewTracer(n)
	}
	var slow *obs.SlowTraceLog
	if tracer != nil {
		slow = obs.NewSlowTraceLog(0, *slowTh)
		tracer.SetSlowLog(slow)
	}
	gw, err := gateway.New(gateway.Options{
		Replicas:       addrsList,
		Instance:       *instance,
		Seed:           *seed,
		Tenants:        tenantOpts,
		Auth:           auth,
		PoolSize:       *pool,
		RPCTimeout:     *rpcTO,
		MaxAttempts:    *retries,
		RetryBackoff:   *backoff,
		HedgeDelay:     *hedge,
		CacheSize:      *cache,
		HealthInterval: *health,
		Tracer:         tracer,
		Store:          artifacts,
		Peers:          peerList,
		SelfAddr:       self,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer gw.Close()

	srv, err := cluster.NewQueryServer(*addr, gw)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *verbose {
		srv.SetLogger(slog.New(slog.NewTextHandler(stderr, nil)))
	}
	if *timeout > 0 {
		srv.SetRequestTimeout(*timeout)
	}

	// Observability: gateway counters and latency summaries on a
	// registry that serves both HTTP scrapes (-debug-addr) and wire
	// scrapes (lcaclient -scrape against the gateway address).
	reg := obs.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	srv.SetRegistry(reg)
	if slow != nil {
		if err := slow.RegisterMetrics(reg, ""); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	var rec *obs.SpanRecorder
	if tracer != nil {
		rec = tracer.Recorder()
	}
	if *debug != "" {
		dbg, err := obs.NewDebugServer(*debug, reg, rec, slow)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer dbg.Close()
		fmt.Fprintf(stdout, "lcagateway: debug endpoint on %s\n", dbg.Addr())
	}
	if artifacts != nil {
		// Come back warm: every stored or pulled tenant artifact is
		// installed before the first client burst and answers with
		// zero replica RPCs.
		warmed, err := gw.WarmAllFromStore(context.Background())
		if err != nil {
			fmt.Fprintf(stderr, "lcagateway: warm from store: %v\n", err)
		}
		fmt.Fprintf(stdout, "lcagateway: %d answers servable from artifacts in %s\n", warmed, *storeDir)
	}
	if *warm > 0 {
		// Warm in the background: serving must not wait for the preload,
		// and queries arriving mid-warm are answered normally.
		go func() {
			items := make([]int, *warm)
			for i := range items {
				items[i] = i
			}
			warmed, err := gw.Warm(context.Background(), items)
			if err != nil {
				fmt.Fprintf(stderr, "lcagateway: warm: %v\n", err)
			}
			fmt.Fprintf(stdout, "lcagateway: warmed %d cache entries\n", warmed)
		}()
	}

	fmt.Fprintf(stdout, "lcagateway: listening on %s fronting %d replicas\n", srv.Addr(), len(addrsList))
	wait()
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	m := gw.Metrics()
	fmt.Fprintf(stdout, "lcagateway: served %d point + %d batch queries\n", m.Queries, m.BatchQueries)
	fmt.Fprintf(stdout, "lcagateway: cache hit rate %.3f (%d hits, %d misses), %d single-flight shares\n",
		m.CacheHitRate(), m.CacheHits, m.CacheMisses, m.FlightsShared)
	fmt.Fprintf(stdout, "lcagateway: %d attempts, %d retries, %d failovers, %d hedges (%d wins), %d reconnects, %d errors\n",
		m.Attempts, m.Retries, m.Failovers, m.Hedges, m.HedgeWins, m.Reconnects, m.Errors)
	if artifacts != nil {
		fmt.Fprintf(stdout, "lcagateway: %d artifact serves, %d peer fills (%d errors), %d artifacts served to peers\n",
			m.StoreServes, m.PeerFills, m.PeerFillErrors, m.ArtifactsServed)
	}
	if len(tenantOpts) > 0 || auth != nil {
		fmt.Fprintf(stdout, "lcagateway: %d auth rejects, %d quota rejects\n", m.AuthRejects, m.QuotaRejects)
		for _, id := range gw.Tenants() {
			tm, ok := gw.TenantMetrics(id)
			if !ok {
				continue
			}
			fmt.Fprintf(stdout, "lcagateway: tenant %s: %d point + %d batch queries, %d cache hits, %d quota rejects\n",
				id, tm.Queries, tm.BatchQueries, tm.CacheHits, tm.QuotaRejects)
		}
	}
	if tracer != nil {
		if err := tracer.Recorder().WriteText(stdout); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}
	fmt.Fprintln(stdout, "lcagateway: shut down")
	return 0
}
