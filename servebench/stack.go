package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/epoch"
	"lcakp/internal/gateway"
	"lcakp/internal/oracle"
	"lcakp/internal/store"
)

// replicaCount is the number of LCA replicas behind the gateway.
const replicaCount = 2

// retainEpochs is how many sealed epochs each manager keeps resident:
// the current one and the one in-flight pinned queries may still ask.
const retainEpochs = 2

// stack is the deployed serving stack in one process: the instance
// server, two multi-tenant replicas, the gateway on a query server,
// and (where the workload needs them) the artifact store and one epoch
// manager per tenant. Untraced, it is wired exactly like lcaserver and
// lcagateway; traced, the benchmark's probes wrap each layer boundary.
type stack struct {
	cfg      config
	oracle   *oracle.SliceOracle
	instance *cluster.InstanceServer
	mgrs     map[engine.TenantID]*epoch.Manager // read-only after start
	st       *store.Store                       // nil without a store
	tables   []*engine.TenantTable
	replicas []*cluster.MultiLCAServer
	gw       *gateway.Gateway
	front    *cluster.QueryServer
	pr       *probes // nil when untraced

	// Set-up and publish timings the per-layer metrics report.
	warm          time.Duration
	warmed        int
	materializeMs []float64
	putMs         []float64
	sealMs        []float64
	publishMs     []float64
	publishAt     []time.Time
}

// startStack runs the program's set-up calls: the instance server over
// the instance, the epoch-0 rule derivation of every tenant, artifact
// materialization and persistence, the replicas, the gateway and its
// query server, and the gateway's warm-up from the store. pr is nil
// for an untraced stack.
func startStack(ctx context.Context, cfg config, in *inputs, dir string, pr *probes) (_ *stack, err error) {
	s := &stack{cfg: cfg, mgrs: make(map[engine.TenantID]*epoch.Manager), pr: pr}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
		}
	}()

	if s.oracle, err = oracle.NewSliceOracle(in.inst); err != nil {
		return nil, err
	}
	if s.instance, err = cluster.NewInstanceServer("127.0.0.1:0", s.oracle); err != nil {
		return nil, err
	}

	if cfg.store {
		if s.st, err = store.New(dir, 0); err != nil {
			return nil, err
		}
	}
	for _, id := range in.tenants {
		m, err := epoch.NewManager(ctx, id, in.inst, lcaParams(id), retainEpochs)
		if err != nil {
			return nil, err
		}
		s.mgrs[id] = m
		if s.st != nil {
			snap, _ := m.Snapshot(0)
			if err := s.persist(ctx, id, snap); err != nil {
				return nil, err
			}
		}
	}

	factory := s.replicaFactory()
	addrs := make([]string, 0, replicaCount)
	for r := 0; r < replicaCount; r++ {
		table := engine.NewVersionedTenantTable(factory, 0)
		s.tables = append(s.tables, table)
		srv, err := cluster.NewMultiLCAServer("127.0.0.1:0", table)
		if err != nil {
			return nil, err
		}
		srv.SetDefaultTenant(in.tenants[0])
		s.replicas = append(s.replicas, srv)
		addrs = append(addrs, srv.Addr())
	}

	// The options lcagateway's flags default to, plus the tenant
	// manifest and store the workload mounts.
	var tenants []gateway.TenantOptions
	for _, id := range in.tenants[1:] {
		tenants = append(tenants, gateway.TenantOptions{Instance: id.Instance, Seed: id.Seed})
	}
	if s.gw, err = gateway.New(gateway.Options{
		Replicas:       addrs,
		Instance:       in.tenants[0].Instance,
		Seed:           in.tenants[0].Seed,
		Tenants:        tenants,
		PoolSize:       gateway.DefaultPoolSize,
		MaxAttempts:    gateway.DefaultMaxAttempts,
		RetryBackoff:   gateway.DefaultRetryBackoff,
		HedgeDelay:     -1,
		CacheSize:      gateway.DefaultCacheSize,
		MaxBatch:       gateway.DefaultMaxBatch,
		HealthInterval: gateway.DefaultHealthInterval,
		Store:          s.st,
	}); err != nil {
		return nil, err
	}
	var backend cluster.Backend = s.gw
	if pr != nil {
		backend = &gatewayProbe{gw: s.gw, pr: pr}
	}
	if s.front, err = cluster.NewQueryServer("127.0.0.1:0", backend); err != nil {
		return nil, err
	}
	if s.st != nil {
		start := time.Now()
		if s.warmed, err = s.gw.WarmAllFromStore(ctx); err != nil {
			return nil, err
		}
		s.warm = time.Since(start)
	}
	return s, nil
}

// replicaFactory derives the replicas' tenant engines. Epoch 0 of
// hot-cache and cold-derive is the stateless LCA over the remote
// instance, as lcaserver builds it; sealed epochs, and every epoch of
// churn-batch, serve the tenant manager's sealed rule, so no second
// seal competes with the writer's.
func (s *stack) replicaFactory() engine.VersionedTenantFactory {
	addr := s.instance.Addr()
	return func(ctx context.Context, vt engine.VersionedTenant) (engine.TenantState, error) {
		m, ok := s.mgrs[vt.Tenant]
		if !ok {
			return engine.TenantState{}, fmt.Errorf("servebench: unknown tenant %s", vt.Tenant)
		}
		if vt.Epoch != 0 || s.cfg.churnEvery > 0 {
			return m.Factory()(ctx, vt)
		}
		remote, err := cluster.DialInstanceContext(ctx, addr, 0, samplePrefetch)
		if err != nil {
			return engine.TenantState{}, fmt.Errorf("tenant %s: dial instance: %w", vt.Tenant, err)
		}
		lca, err := core.NewLCAKP(engine.Wrap(remote), lcaParams(vt.Tenant))
		if err != nil {
			return engine.TenantState{}, errors.Join(fmt.Errorf("tenant %s: %w", vt.Tenant, err), remote.Close())
		}
		var q engine.Querier = lca
		if s.pr != nil {
			q = probedQuerier{q: lca, pr: s.pr}
		}
		return engine.TenantState{Engine: engine.New(q), Close: remote.Close}, nil
	}
}

// persist materializes one sealed epoch's artifact and puts it into the
// store, recording both timings.
func (s *stack) persist(ctx context.Context, id engine.TenantID, snap *epoch.Snapshot) error {
	start := time.Now()
	// The scan only makes point queries, so no alias table is built.
	access := oracle.NewSliceOracleWithSampler(snap.Instance, nil)
	a, err := store.MaterializeEpoch(ctx, access, snap.Rule, id.Instance, id.Seed, uint64(snap.Epoch))
	if err != nil {
		return err
	}
	mid := time.Now()
	if err := s.st.Put(ctx, a); err != nil {
		return err
	}
	s.materializeMs = append(s.materializeMs, ms(mid.Sub(start)))
	s.putMs = append(s.putMs, ms(time.Since(mid)))
	return nil
}

// publish seals muts into the default tenant's next epoch and rolls the
// stack onto it: seal, artifact materialization and Put (with a store),
// the gateway's SetTenantEpoch and every replica's SetCurrentEpoch.
func (s *stack) publish(ctx context.Context, id engine.TenantID, muts []epoch.Mutation) (engine.EpochID, error) {
	m := s.mgrs[id]
	if err := m.StageAll(muts); err != nil {
		return 0, err
	}
	start := time.Now()
	snap, err := m.Seal(ctx)
	if err != nil {
		return 0, err
	}
	sealed := time.Now()
	s.sealMs = append(s.sealMs, ms(sealed.Sub(start)))
	if s.st != nil {
		if err := s.persist(ctx, id, snap); err != nil {
			return 0, err
		}
	}
	persisted := time.Now()
	if err := s.gw.SetTenantEpoch(id, snap.Epoch); err != nil {
		return 0, err
	}
	for _, table := range s.tables {
		if err := table.SetCurrentEpoch(id, snap.Epoch); err != nil {
			return 0, err
		}
	}
	end := time.Now()
	s.publishMs = append(s.publishMs, ms(end.Sub(start)))
	s.publishAt = append(s.publishAt, start)
	if s.pr != nil {
		l := s.pr.spans
		root := l.newID()
		l.add(l.newID(), root, "epoch.seal", start, sealed.Sub(start))
		l.add(l.newID(), root, "store.persist", sealed, persisted.Sub(sealed))
		l.add(l.newID(), root, "epoch.roll", persisted, end.Sub(persisted))
		l.add(root, 0, "epoch.publish", start, end.Sub(start))
	}
	return snap.Epoch, nil
}

// engineTotals sums the replicas' engine accounting over every tenant
// at its current epoch, and counts the tables' tenant derivations.
func (s *stack) engineTotals(in *inputs) (engine.Totals, int64) {
	var sum engine.Totals
	var derivations int64
	for _, table := range s.tables {
		for _, id := range in.tenants {
			if t, ok := table.Totals(id); ok {
				sum.Queries += t.Queries
				sum.PointQueries += t.PointQueries
				sum.Samples += t.Samples
				sum.Wall += t.Wall
			}
		}
		derivations += table.Stats().Derivations
	}
	return sum, derivations
}

// close stops every server and releases the store, front to back.
func (s *stack) close() error {
	var errs []error
	if s.front != nil {
		errs = append(errs, s.front.Close())
	}
	if s.gw != nil {
		errs = append(errs, s.gw.Close())
	}
	for _, r := range s.replicas {
		errs = append(errs, r.Close())
	}
	for _, t := range s.tables {
		errs = append(errs, t.Close())
	}
	if s.instance != nil {
		errs = append(errs, s.instance.Close())
	}
	if s.st != nil {
		errs = append(errs, s.st.Close())
	}
	return errors.Join(errs...)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
