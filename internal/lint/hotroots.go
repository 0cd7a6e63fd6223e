package lint

// defaultHotRoots configures where hotness starts in the real module:
// the entry points of the paths ROADMAP's million-QPS item holds to an
// allocation budget. Hotness floods from these roots through static
// call edges (callgraph.go); interface dispatch is not devirtualized,
// so both sides of every interface seam are rooted explicitly.
//
// A root's level is a clamp, not just a seed: a function listed here
// (or marked //lint:hotroot) keeps its declared level even when a
// stricter path calls into it. That is what keeps ComputeRule at
// derive level — the per-query serving path reaches it, but the
// paper's cost model prices derivation per rule (O~(1/ε⁵) probes per
// run, Theorem 4.1), not per query, so only its per-iteration
// allocations are budget-relevant.
//
// TestHotRootsResolve asserts every key below names a function that
// exists, so the table cannot silently rot across refactors.
var defaultHotRoots = map[string]hotLevel{
	// core: the decision rule. Decide runs per query; ComputeRule and
	// QueryBatch amortize one derivation over many answers.
	"lcakp/internal/core.(LCAKP).ComputeRule": hotDerive,
	"lcakp/internal/core.(LCAKP).QueryBatch":  hotDerive,
	"lcakp/internal/core.(LCAKP).Query":       hotDerive,
	"lcakp/internal/core.(Rule).Decide":       hotQuery,

	// oracle: sample frames and item probes run inside the derivation
	// loops — every allocation here multiplies by the frame or probe
	// count, so the samplers are strict.
	"lcakp/internal/oracle.(SliceOracle).SampleFrame":  hotQuery,
	"lcakp/internal/oracle.(SliceOracle).QueryItem":    hotQuery,
	"lcakp/internal/oracle.(AliasSampler).SampleIndex": hotQuery,

	// repro: the EPS sample's empirical CDF is built once per
	// derivation and read by every threshold's estimator call, which
	// ComputeRule reaches through the Estimator interface.
	"lcakp/internal/repro.NewECDF":                 hotDerive,
	"lcakp/internal/repro.(Naive).Quantile":        hotDerive,
	"lcakp/internal/repro.(Snap).Quantile":         hotDerive,
	"lcakp/internal/repro.(Trie).Quantile":         hotDerive,
	"lcakp/internal/repro.(Iterated).Quantile":     hotDerive,
	"lcakp/internal/repro.(PaddedMedian).Quantile": hotDerive,

	// cluster: the wire path — frame encode/decode, the per-connection
	// serve loop, and the client RPC paths.
	"lcakp/internal/cluster.(conn).roundTrip":                   hotQuery,
	"lcakp/internal/cluster.(server).serveConn":                 hotQuery,
	"lcakp/internal/cluster.(server).requestContext":            hotQuery,
	"lcakp/internal/cluster.(instanceHandler).handle":           hotQuery,
	"lcakp/internal/cluster.(backendHandler).handle":            hotQuery,
	"lcakp/internal/cluster.(multiTenantResolver).ResolveEpoch": hotQuery,
	"lcakp/internal/cluster.(LCAClient).inSolution":             hotQuery,
	"lcakp/internal/cluster.(LCAClient).inSolutionBatch":        hotQuery,
	"lcakp/internal/cluster.(RemoteAccess).SampleFrame":         hotQuery,
	"lcakp/internal/cluster.(RemoteAccess).QueryItem":           hotQuery,
	"lcakp/internal/cluster.(engineBackend).InSolution":         hotQuery,
	"lcakp/internal/cluster.(engineBackend).InSolutionBatch":    hotQuery,

	// gateway: route / cache — the ~70ns cached-hit path
	// and everything one miss away from it. Every wire frame resolves
	// through ResolveEpoch and is answered by an epochView.
	"lcakp/internal/gateway.(Gateway).ResolveEpoch":      hotQuery,
	"lcakp/internal/gateway.(epochView).InSolution":      hotQuery,
	"lcakp/internal/gateway.(epochView).InSolutionBatch": hotQuery,
	"lcakp/internal/gateway.(tenant).InSolution":         hotQuery,
	"lcakp/internal/gateway.(tenant).InSolutionBatch":    hotQuery,
	"lcakp/internal/gateway.(answerCache).get":           hotQuery,
	"lcakp/internal/gateway.(answerCache).put":           hotQuery,
	"lcakp/internal/gateway.(answerCache).do":            hotQuery,
	"lcakp/internal/gateway.(router).route":              hotQuery,

	// engine: the resident (tenant, epoch) lookup in front of every
	// query a replica serves (~53ns/op budget).
	"lcakp/internal/engine.(TenantTable).GetEpoch": hotQuery,

	// store: the resident-artifact point lookup the gateway consults on
	// every cache miss before touching replicas. Opening an artifact
	// from disk amortizes like a derivation; the per-item bit probe on
	// a resident handle is strict (0 allocs, BenchmarkStoreLookup).
	"lcakp/internal/store.(Store).LookupEpoch": hotDerive,
	"lcakp/internal/store.(Artifact).Answer":   hotQuery,
}
