package store

import (
	"context"
	"fmt"

	"lcakp/internal/core"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// FromRule converts a derived core.Rule into the artifact's rule
// section. Large indices come out of LargeIndices(), so the encoding
// is canonical regardless of the map's iteration order.
func FromRule(r core.Rule) RuleSection {
	idx := r.LargeIndices()
	large := make([]uint32, len(idx))
	for k, i := range idx {
		large[k] = uint32(i)
	}
	thresholds := make([]float64, len(r.Thresholds))
	copy(thresholds, r.Thresholds)
	return RuleSection{
		ESmall:     r.ESmall,
		Singleton:  r.Singleton,
		Large:      large,
		Thresholds: thresholds,
	}
}

// ToRule reconstructs the core.Rule a rule section encodes, under the
// artifact's epsilon. The round trip FromRule → ToRule preserves the
// decision function exactly (core.Rule.Equal), which is what lets a
// process that only holds the artifact keep answering queries outside
// a stale cache — or re-serve the rule to a new replica.
func (rs RuleSection) ToRule(epsilon float64) core.Rule {
	largeIn := make(map[int]bool, len(rs.Large))
	for _, i := range rs.Large {
		largeIn[int(i)] = true
	}
	thresholds := make([]float64, len(rs.Thresholds))
	copy(thresholds, rs.Thresholds)
	return core.Rule{
		Epsilon:    epsilon,
		LargeIn:    largeIn,
		ESmall:     rs.ESmall,
		Singleton:  rs.Singleton,
		Thresholds: thresholds,
	}
}

// MaterializeRule runs one rule derivation under the canonical
// materialization randomness stream — a pure function of the shared
// seed, not of process state. Ordinary queries deliberately vary their
// fresh sampling randomness per run (consistency never depends on it);
// materialization pins it so that every process derives not just an
// equal rule w.h.p. but the *identical* rule deterministically,
// thresholds included, which is what makes artifact bytes reproducible
// across processes.
func MaterializeRule(ctx context.Context, lca *core.LCAKP) (core.Rule, error) {
	fresh := rng.New(lca.Params().Seed).Derive("lcakp", "materialize")
	return lca.ComputeRule(ctx, fresh)
}

// scanCheck is how many items the materialize scan probes between
// context checks: a canceled scan stops within 4,096 items, as a
// derivation stops within one 4,096-draw sampling frame.
const scanCheck = 4096

// MaterializeEpoch evaluates a derived rule over every item of one
// epoch's instance I_e and encodes the complete solution as an
// artifact addressed by (instance, seed, epoch). This is the
// Rubinfeld–Tamir–Vardi–Xie preprocessing step made explicit: n oracle
// probes paid once, after which every lookup anywhere in the fleet is
// a bit probe. The scan is deterministic (index order, one probe per
// item), so two processes materializing the same (I_e, r) emit
// bit-identical artifacts — TestMaterializeDeterministicBytes holds
// this against the encoder. Each answer is set straight into the
// artifact's answer section by the encoder NewArtifactEpoch uses, and
// ctx is checked once per scanCheck items.
//
//lint:coldpath materialization is offline preprocessing, never on the query path
func MaterializeEpoch(ctx context.Context, access oracle.Access, rule core.Rule, instance, seed, epoch uint64) (*Artifact, error) {
	n := access.N()
	enc, err := newEncoding(instance, seed, epoch, rule.Epsilon, n, FromRule(rule))
	if err != nil {
		return nil, err
	}
	for i := range n {
		if i&(scanCheck-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("store: materialize item %d/%d: %w", i, n, err)
			}
		}
		it, err := access.QueryItem(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("store: materialize item %d/%d: %w", i, n, err)
		}
		enc.set(i, rule.Decide(i, it))
	}
	return enc.seal()
}
