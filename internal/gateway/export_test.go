package gateway

import (
	"context"

	"lcakp/internal/engine"
)

// InSolutionEpoch answers one membership query for the default tenant
// pinned to epoch ep (engine.EpochCurrent resolves to the tenant's
// current epoch). A pinned query is served bit-identically forever:
// epoch e's answers are a pure function of (I_e, r), so rollover to
// e+1 cannot perturb them.
func (g *Gateway) InSolutionEpoch(ctx context.Context, ep engine.EpochID, i int) (bool, error) {
	return g.def.inSolutionAt(ctx, g.def.resolveEpoch(ep), i)
}

// InSolutionBatchEpoch answers a batch of membership queries for the
// default tenant, all pinned to one epoch.
func (g *Gateway) InSolutionBatchEpoch(ctx context.Context, ep engine.EpochID, indices []int) ([]bool, error) {
	return g.def.inSolutionBatchAt(ctx, g.def.resolveEpoch(ep), indices)
}

// TenantEpoch reports tenant id's current serving epoch.
func (g *Gateway) TenantEpoch(id engine.TenantID) (engine.EpochID, bool) {
	t, ok := g.tenants[id]
	if !ok {
		return 0, false
	}
	return t.currentEpoch(), true
}

// shard returns k's shard.
func (c *answerCache) shard(k Key) *cacheShard {
	return c.shardOf(hashKey(k))
}

// len reports the total number of resident entries.
func (c *answerCache) len() int {
	total := 0
	for s := range c.shards {
		c.shards[s].mu.Lock()
		total += c.shards[s].used
		c.shards[s].mu.Unlock()
	}
	return total
}

// Len reports how many keys are loaded.
func (a *Authorizer) Len() int { return len(a.entries) }
