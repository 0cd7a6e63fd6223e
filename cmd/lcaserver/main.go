// Command lcaserver runs the two server roles of the distributed
// deployment: an instance store holding a generated workload, and any
// number of LCA replicas over it.
//
// Start an instance store:
//
//	lcaserver -role instance -addr 127.0.0.1:7070 -workload zipf -n 100000
//
// Start replicas against it (any number, on any machines that can
// reach the store; equal -seed values make them answer consistently).
// A replica serves one tenant, named by -instance-hash and -seed:
// frames naming that tenant, and untenanted frames, reach it, and a
// gateway in front of it must be started with the same -instance-id
// and -seed:
//
//	lcaserver -role lca -addr 127.0.0.1:7071 -instance 127.0.0.1:7070 -eps 0.1 -seed 7
//	lcaserver -role lca -addr 127.0.0.1:7072 -instance 127.0.0.1:7070 -eps 0.1 -seed 7
//
// A replica can also serve many tenants — (instance, seed) pairs —
// from one process via a manifest (one line per tenant):
//
//	# instance-addr     instance-hash  seed  epsilon
//	127.0.0.1:7070      1              7     0.1    default
//	127.0.0.1:7070      1              8     0.1
//	127.0.0.1:7075      2              7     0.25
//
//	lcaserver -role lca -addr 127.0.0.1:7071 -tenants tenants.txt -tenant-budget 32
//
// Tenant engines are derived lazily on first query and evicted LRU
// past the budget; the "default" row answers clients whose frames name
// no tenant. Then query them with lcaclient. The server runs until
// SIGINT/SIGTERM.
//
// With role=lca and -materialize, the replica does not serve: it
// derives the canonical decision rule, evaluates it over the whole
// instance, writes the solution artifact into the given directory
// (content-addressed by -instance-hash and -seed; see internal/store),
// and exits. Any machine materializing the same (instance, seed,
// epsilon) writes bit-identical artifact files:
//
//	lcaserver -role lca -instance 127.0.0.1:7070 -eps 0.1 -seed 7 \
//	    -instance-hash 3 -materialize /var/lib/lcakp/artifacts
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
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/store"
	"lcakp/internal/workload"
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

// closer is the common management surface of both server roles.
type closer interface {
	Close() error
	Addr() string
	SetLogger(*slog.Logger)
	SetRequestTimeout(time.Duration)
	SetRegistry(*obs.Registry)
}

// run executes the CLI and returns the process exit code. wait blocks
// until shutdown is requested (injected for tests).
func run(args []string, stdout, stderr io.Writer, wait func()) int {
	flags := flag.NewFlagSet("lcaserver", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		role         = flags.String("role", "instance", `"instance" or "lca"`)
		addr         = flags.String("addr", "127.0.0.1:7070", "listen address")
		instanceAddr = flags.String("instance", "", "instance-store address (role=lca)")
		workloadName = flags.String("workload", "uniform", fmt.Sprintf("workload family %v (role=instance)", workload.Names()))
		n            = flags.Int("n", 100000, "number of items (role=instance)")
		wseed        = flags.Uint64("instance-seed", 42, "workload generation seed (role=instance)")
		eps          = flags.Float64("eps", 0.1, "epsilon (role=lca)")
		seed         = flags.Uint64("seed", 1, "shared LCA seed (role=lca)")
		tenants      = flags.String("tenants", "", `tenant manifest (role=lca): lines of "<instance-addr> <instance-hash> <seed> <epsilon> [default]"; serves a multi-tenant replica instead of -instance/-eps/-seed`)
		tenantBudget = flags.Int("tenant-budget", 0, "max resident tenant engines before LRU eviction (0 = engine default; with -tenants)")
		timeout      = flags.Duration("timeout", 0, "per-request deadline; a request exceeding it gets an error response instead of hanging (0 = unbounded)")
		verbose      = flags.Bool("verbose", false, "log connection and error events to stderr")
		debugAddr    = flags.String("debug-addr", "", "serve /metrics, /debug/traces, /debug/slow, and /debug/pprof on this HTTP address (empty = off)")
		traceN       = flags.Int("trace", 0, "record per-query trace spans, retaining the last N, and dump them at shutdown (0 = off)")
		slowThresh   = flags.Duration("slow-threshold", 0, "force-retain complete span trees for queries slower than this; implies -trace (0 = capture error/warn-event traces only when tracing)")
		materialize  = flags.String("materialize", "", "role=lca: write the complete solution artifact into this directory and exit instead of serving")
		instanceHash = flags.Uint64("instance-hash", 0, "instance identity (role=lca): with -seed it names the tenant the replica serves and the artifact -materialize writes")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *materialize != "" {
		if *role != "lca" {
			fmt.Fprintln(stderr, "lcaserver: -materialize requires -role lca")
			return 1
		}
		return runMaterialize(stdout, stderr, *instanceAddr, *materialize, *eps, *instanceHash, *seed)
	}

	var (
		srv   closer
		eng   *engine.Engine
		table *engine.TenantTable
		err   error
	)
	switch *role {
	case "instance":
		srv, err = startInstance(*addr, *workloadName, *n, *wseed)
	case "lca":
		if *tenants != "" {
			srv, table, err = startMultiReplica(*addr, *tenants, *tenantBudget)
		} else {
			srv, eng, err = startReplica(*addr, *instanceAddr, *eps, engine.TenantID{Instance: *instanceHash, Seed: *seed})
		}
	default:
		err = fmt.Errorf("unknown role %q (want instance or lca)", *role)
	}
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

	// Observability: the registry is always live (wire scraping via
	// lcaclient -scrape costs nothing when unused); tracing and the HTTP
	// debug endpoint are opt-in.
	reg := obs.NewRegistry()
	srv.SetRegistry(reg)
	var tracer *obs.Tracer
	if *traceN > 0 || *slowThresh > 0 {
		n := *traceN
		if n <= 0 {
			n = 512 // -slow-threshold implies tracing: slow capture needs spans
		}
		tracer = obs.NewTracer(n)
	}
	var slow *obs.SlowTraceLog
	if tracer != nil {
		slow = obs.NewSlowTraceLog(0, *slowThresh)
		tracer.SetSlowLog(slow)
		if err := slow.RegisterMetrics(reg, ""); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if eng != nil {
		if err := eng.RegisterMetrics(reg, "lcakp_engine"); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if tracer != nil {
			eng.SetTracer(tracer)
		}
	}
	if table != nil {
		if err := table.RegisterMetrics(reg, "lcakp_tenants"); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	var rec *obs.SpanRecorder
	if tracer != nil {
		rec = tracer.Recorder()
	}
	if *debugAddr != "" {
		dbg, err := obs.NewDebugServer(*debugAddr, reg, rec, slow)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer dbg.Close()
		fmt.Fprintf(stdout, "lcaserver: debug endpoint on %s\n", dbg.Addr())
	}

	fmt.Fprintf(stdout, "lcaserver: role=%s listening on %s\n", *role, srv.Addr())
	wait()
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if table != nil {
		if err := table.Close(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}
	if eng != nil {
		t := eng.Totals()
		fmt.Fprintf(stdout, "lcaserver: served %d queries (%d point queries, %d samples; ok=%d canceled=%d deadline=%d budget=%d error=%d)\n",
			t.Queries, t.PointQueries, t.Samples, t.OK, t.Canceled, t.Deadline, t.Budget, t.Errors)
	}
	if tracer != nil {
		if err := tracer.Recorder().WriteText(stdout); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}
	fmt.Fprintln(stdout, "lcaserver: shut down")
	return 0
}

// runMaterialize dials the instance store, derives the canonical rule,
// scans the instance, and persists the solution artifact. This is the
// paper's preprocessing deployment made operational: the n-probe scan
// is paid here, offline, so gateways serve bit probes afterwards.
func runMaterialize(stdout, stderr io.Writer, instanceAddr, dir string, eps float64, instanceHash, seed uint64) int {
	if instanceAddr == "" {
		fmt.Fprintln(stderr, "lcaserver: -materialize requires -instance address")
		return 1
	}
	remote, err := cluster.DialInstance(instanceAddr, 0, 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer remote.Close()
	lca, err := core.NewLCAKP(engine.Wrap(remote), core.Params{Epsilon: eps, Seed: seed})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ctx := context.Background()
	start := time.Now()
	rule, err := store.MaterializeRule(ctx, lca)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// A static instance is its tenant's epoch 0.
	a, err := store.MaterializeEpoch(ctx, engine.Wrap(remote), rule, instanceHash, seed, 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st, err := store.New(dir, 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer st.Close()
	if err := st.Put(ctx, a); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "lcaserver: materialized i%d-s%d: %d items, %d bytes, checksum %016x in %v\n",
		instanceHash, seed, a.N, a.Size(), a.Checksum(), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "lcaserver: artifact: %s\n", st.PathVersioned(engine.VersionedTenant{Tenant: engine.TenantID{Instance: instanceHash, Seed: seed}}))
	return 0
}

// startInstance generates the workload and serves it.
func startInstance(addr, workloadName string, n int, wseed uint64) (closer, error) {
	gen, err := workload.Generate(workload.Spec{Name: workloadName, N: n, Seed: wseed})
	if err != nil {
		return nil, err
	}
	access, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		return nil, err
	}
	return cluster.NewInstanceServer(addr, access)
}

// tenantSpec is one manifest row: where a tenant's instance lives and
// which epsilon its LCA runs at. The seed lives in the TenantID key.
type tenantSpec struct {
	instanceAddr string
	epsilon      float64
}

// startMultiReplica serves a multi-tenant replica: a TenantTable whose
// factory dials each tenant's instance store on first query and builds
// the LCA with the tenant's own seed, behind one tenant-aware wire
// server.
func startMultiReplica(addr, manifestPath string, budget int) (closer, *engine.TenantTable, error) {
	specs, def, err := parseTenantManifest(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	factory := func(ctx context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		id := vt.Tenant
		spec, ok := specs[id]
		if !ok {
			return engine.TenantState{}, fmt.Errorf("tenant %s is not in the manifest", id)
		}
		if vt.Epoch != 0 {
			return engine.TenantState{}, fmt.Errorf("tenant %s: epoch %d requested, but manifest tenants serve epoch 0 only", id, uint64(vt.Epoch))
		}
		remote, err := cluster.DialInstanceContext(ctx, spec.instanceAddr, 0, 0)
		if err != nil {
			return engine.TenantState{}, fmt.Errorf("tenant %s: dial instance: %w", id, err)
		}
		lca, err := core.NewLCAKP(engine.Wrap(remote), core.Params{Epsilon: spec.epsilon, Seed: id.Seed})
		if err != nil {
			_ = remote.Close()
			return engine.TenantState{}, fmt.Errorf("tenant %s: %w", id, err)
		}
		return engine.TenantState{Engine: engine.New(lca), Close: remote.Close}, nil
	}
	table := engine.NewVersionedTenantTable(factory, budget)
	srv, err := cluster.NewMultiLCAServer(addr, table)
	if err != nil {
		_ = table.Close()
		return nil, nil, err
	}
	if def != nil {
		srv.SetDefaultTenant(*def)
	}
	return srv, table, nil
}

// parseTenantManifest reads the tenant manifest: one row per servable
// tenant, "#" comments and blank lines skipped. At most one row may be
// marked default (it answers frames that name no tenant).
func parseTenantManifest(path string) (map[engine.TenantID]tenantSpec, *engine.TenantID, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("tenant manifest: %w", err)
	}
	defer f.Close()
	specs := make(map[engine.TenantID]tenantSpec)
	var def *engine.TenantID
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 && !(len(fields) == 5 && fields[4] == "default") {
			return nil, nil, fmt.Errorf(`tenant manifest %s:%d: want "<instance-addr> <instance-hash> <seed> <epsilon> [default]"`, path, lineNo)
		}
		hash, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant manifest %s:%d: bad instance hash %q: %w", path, lineNo, fields[1], err)
		}
		seed, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant manifest %s:%d: bad seed %q: %w", path, lineNo, fields[2], err)
		}
		eps, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant manifest %s:%d: bad epsilon %q: %w", path, lineNo, fields[3], err)
		}
		id := engine.TenantID{Instance: hash, Seed: seed}
		if _, dup := specs[id]; dup {
			return nil, nil, fmt.Errorf("tenant manifest %s:%d: tenant %s declared twice", path, lineNo, id)
		}
		specs[id] = tenantSpec{instanceAddr: fields[0], epsilon: eps}
		if len(fields) == 5 {
			if def != nil {
				return nil, nil, fmt.Errorf("tenant manifest %s:%d: second default tenant %s (already %s)", path, lineNo, id, *def)
			}
			idCopy := id
			def = &idCopy
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("tenant manifest %s: %w", path, err)
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("tenant manifest %s: no tenants declared", path)
	}
	return specs, def, nil
}

// startReplica dials the instance store and serves an LCA over it as
// tenant id. The access is wrapped with the engine instrumentation so
// the engine's totals report per-query access counts. The engine is
// returned so run can attach the registry and tracer.
func startReplica(addr, instanceAddr string, eps float64, id engine.TenantID) (closer, *engine.Engine, error) {
	if instanceAddr == "" {
		return nil, nil, fmt.Errorf("role=lca requires -instance address")
	}
	remote, err := cluster.DialInstance(instanceAddr, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	lca, err := core.NewLCAKP(engine.Wrap(remote), core.Params{Epsilon: eps, Seed: id.Seed})
	if err != nil {
		_ = remote.Close()
		return nil, nil, err
	}
	eng := engine.New(lca)
	srv, err := cluster.NewLCAServer(addr, id, eng)
	if err != nil {
		return nil, nil, err
	}
	return srv, eng, nil
}
