package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/oracle"
)

// Fleet is a set of LCA replica servers over one shared instance,
// plus clients connected to each — the in-process harness for the
// distributed-consistency experiment (E9) and the distributed example.
type Fleet struct {
	Instance *InstanceServer
	Replicas []*MultiLCAServer
	Clients  []*LCAClient

	accesses []*RemoteAccess
}

// NewFleet starts an instance server for access, k LCA replicas (each
// talking to the instance over TCP through its own RemoteAccess), and
// one client per replica. All replicas share params — in particular
// the seed — which is the sole source of their mutual consistency.
// Every listener binds to 127.0.0.1 ephemeral ports.
func NewFleet(access oracle.Access, k int, params core.Params) (*Fleet, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: fleet size %d < 1", k)
	}
	fleet := &Fleet{}
	instSrv, err := NewInstanceServer("127.0.0.1:0", access)
	if err != nil {
		return nil, err
	}
	fleet.Instance = instSrv

	for r := 0; r < k; r++ {
		remote, err := DialInstance(instSrv.Addr(), DefaultTimeout, 0)
		if err != nil {
			fleet.Close()
			return nil, fmt.Errorf("cluster: replica %d dial instance: %w", r, err)
		}
		fleet.accesses = append(fleet.accesses, remote)

		// Wrap the remote access with the engine instrumentation so
		// each replica server records per-query metrics.
		lca, err := core.NewLCAKP(engine.Wrap(remote), params)
		if err != nil {
			fleet.Close()
			return nil, fmt.Errorf("cluster: replica %d build LCA: %w", r, err)
		}
		replica, err := NewLCAServer("127.0.0.1:0", engine.TenantID{Seed: params.Seed}, engine.New(lca))
		if err != nil {
			fleet.Close()
			return nil, fmt.Errorf("cluster: replica %d serve: %w", r, err)
		}
		fleet.Replicas = append(fleet.Replicas, replica)

		client, err := DialLCA(replica.Addr(), DefaultTimeout)
		if err != nil {
			fleet.Close()
			return nil, fmt.Errorf("cluster: replica %d dial: %w", r, err)
		}
		fleet.Clients = append(fleet.Clients, client)
	}
	return fleet, nil
}

// Close tears the whole fleet down: clients, replicas, remote
// accesses, then the instance server.
func (f *Fleet) Close() {
	for _, c := range f.Clients {
		_ = c.Close()
	}
	for _, r := range f.Replicas {
		_ = r.Close()
	}
	for _, a := range f.accesses {
		_ = a.Close()
	}
	if f.Instance != nil {
		_ = f.Instance.Close()
	}
}

// ConsistencyReport summarizes a cross-replica consistency check.
type ConsistencyReport struct {
	Queries     int
	Replicas    int
	Agreements  int // queries on which every replica answered alike
	YesFraction float64
	Elapsed     time.Duration
	// PerQuery is elapsed / (queries * replicas).
	PerQuery time.Duration
}

// AgreementRate returns the fraction of queries with unanimous
// answers.
func (r ConsistencyReport) AgreementRate() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Agreements) / float64(r.Queries)
}

// CheckConsistency sends every query index to every replica (each
// replica sees the indices in a different rotation, exercising
// query-order obliviousness) and reports cross-replica agreement.
// Replicas are driven concurrently — the deployment pattern the LCA
// model is for — while each replica's own stream stays sequential.
func (f *Fleet) CheckConsistency(ctx context.Context, queries []int) (ConsistencyReport, error) {
	if len(f.Clients) == 0 {
		return ConsistencyReport{}, fmt.Errorf("cluster: empty fleet")
	}
	start := time.Now()
	k := len(f.Clients)
	answers := make([][]bool, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r, client := range f.Clients {
		wg.Add(1)
		go func(r int, client *LCAClient) {
			defer wg.Done()
			answers[r] = make([]bool, len(queries))
			// Rotate the order per replica: answers must not depend
			// on query order (Definition 2.4).
			for qi := range queries {
				pos := (qi + r) % len(queries)
				in, err := client.InSolution(ctx, queries[pos])
				if err != nil {
					errs[r] = fmt.Errorf("cluster: replica %d query %d: %w", r, queries[pos], err)
					return
				}
				answers[r][pos] = in
			}
		}(r, client)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ConsistencyReport{}, err
		}
	}
	elapsed := time.Since(start)

	report := ConsistencyReport{
		Queries:  len(queries),
		Replicas: k,
		Elapsed:  elapsed,
	}
	yes := 0
	for qi := range queries {
		unanimous := true
		for r := 1; r < k; r++ {
			if answers[r][qi] != answers[0][qi] {
				unanimous = false
				break
			}
		}
		if unanimous {
			report.Agreements++
		}
		if answers[0][qi] {
			yes++
		}
	}
	report.YesFraction = float64(yes) / float64(max(1, len(queries)))
	if n := len(queries) * k; n > 0 {
		report.PerQuery = elapsed / time.Duration(n)
	}
	return report, nil
}

// CheckConsistencyBatched is CheckConsistency using one batched RPC
// per replica: every replica computes ONE rule for the whole query set
// (answers within a replica are then mutually consistent by
// construction), so this isolates the cross-replica consistency signal
// and shows the batch API's amortization.
func (f *Fleet) CheckConsistencyBatched(ctx context.Context, queries []int) (ConsistencyReport, error) {
	if len(f.Clients) == 0 {
		return ConsistencyReport{}, fmt.Errorf("cluster: empty fleet")
	}
	start := time.Now()
	k := len(f.Clients)
	answers := make([][]bool, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r, client := range f.Clients {
		wg.Add(1)
		go func(r int, client *LCAClient) {
			defer wg.Done()
			// Rotate the order per replica (Definition 2.4), then
			// un-rotate the answers.
			rotated := make([]int, len(queries))
			for qi := range queries {
				rotated[qi] = queries[(qi+r)%len(queries)]
			}
			got, err := client.InSolutionBatch(ctx, rotated)
			if err != nil {
				errs[r] = fmt.Errorf("cluster: replica %d batch: %w", r, err)
				return
			}
			answers[r] = make([]bool, len(queries))
			for qi := range queries {
				answers[r][(qi+r)%len(queries)] = got[qi]
			}
		}(r, client)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ConsistencyReport{}, err
		}
	}
	elapsed := time.Since(start)

	report := ConsistencyReport{
		Queries:  len(queries),
		Replicas: k,
		Elapsed:  elapsed,
	}
	yes := 0
	for qi := range queries {
		unanimous := true
		for r := 1; r < k; r++ {
			if answers[r][qi] != answers[0][qi] {
				unanimous = false
				break
			}
		}
		if unanimous {
			report.Agreements++
		}
		if answers[0][qi] {
			yes++
		}
	}
	report.YesFraction = float64(yes) / float64(max(1, len(queries)))
	if n := len(queries) * k; n > 0 {
		report.PerQuery = elapsed / time.Duration(n)
	}
	return report, nil
}
