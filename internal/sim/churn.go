package sim

import (
	"context"
	"fmt"
	"time"

	"lcakp/internal/engine"
	"lcakp/internal/epoch"
	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
)

// ChurnConfig schedules item churn: the catalog mutates while queries
// are in flight, and each batch of mutations is sealed into a new
// epoch whose rule re-derives through the canonical materialization
// path (internal/epoch). Every replica runs its OWN epoch.Manager over
// the same base instance and replays the same mutation stream — the
// cross-replica bit-exactness of sealed epochs is the property under
// test, not an artifact of shared state.
type ChurnConfig struct {
	// Interval is the mean time between epoch seals (exponential);
	// 0 disables churn and the simulation is the static fixed-instance
	// model.
	Interval time.Duration
	// Ops is the number of mutations staged per seal; 0 selects 4. The
	// mix is ~60% reprice, ~20% add, ~20% remove, drawn from the
	// simulation seed.
	Ops int
	// MaxSeals bounds the number of seals; 0 leaves churn running until
	// the query stream drains.
	MaxSeals int
	// Retain is each replica's sealed-epoch residency budget (how far
	// back a pinned query may reach); 0 selects 16.
	Retain int
}

// FlashCrowdConfig schedules a post-seal query burst: every seal is
// followed by a rush of clients querying the fresh catalog — the
// thundering-herd moment where cross-epoch cache mixing would surface.
// Requires churn.
type FlashCrowdConfig struct {
	// Queries is the burst size per seal; 0 disables.
	Queries int
	// ArrivalInterval is the burst's mean inter-arrival time; 0 selects
	// one tenth of the base ArrivalInterval.
	ArrivalInterval time.Duration
}

// PartitionConfig schedules one network partition: a deterministic
// window during which some replicas are unreachable (state intact —
// unlike a crash, nothing restarts). Combined with churn this is the
// churn-during-partition schedule: the cut-off replicas miss seal
// events and must catch up by replaying the missed mutation batches
// when the partition heals, after which pinned queries to every epoch
// — sealed before, during, or after the window — must answer
// identically on both sides of the partition.
type PartitionConfig struct {
	// At is the virtual time the partition opens; 0 disables.
	At time.Duration
	// Duration is the window length; 0 selects 100ms.
	Duration time.Duration
	// Replicas is how many replicas are cut off (the lowest ids);
	// 0 selects half the fleet (at least one, never all).
	Replicas int
}

// NewDynamic builds a churn-capable simulation over a mutable base
// instance. With Churn.Interval == 0 it behaves exactly like New over
// a slice oracle of base; with churn enabled, each replica versions
// the instance through its own epoch.Manager and every query is
// pinned to the epoch that was current when it was issued.
func NewDynamic(base *knapsack.Instance, cfg Config) (*Simulation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := knapsack.ValidateOnce(base); err != nil {
		return nil, fmt.Errorf("%w: base instance: %v", ErrBadConfig, err)
	}
	s := &Simulation{
		cfg:     cfg,
		base:    base,
		dynamic: true,
		src:     rng.New(cfg.Seed).Derive("sim"),
	}
	tenant := engine.TenantID{Instance: 0, Seed: cfg.Params.Seed}
	for r := 0; r < cfg.Replicas; r++ {
		mgr, err := epoch.NewManager(context.Background(), tenant, base, cfg.Params, cfg.Churn.Retain)
		if err != nil {
			return nil, fmt.Errorf("sim: replica %d manager: %w", r, err)
		}
		s.replicas = append(s.replicas, &replica{id: r, mgr: mgr, up: true})
	}
	s.initChurnScales()
	return s, nil
}

// initChurnScales derives the mutation value scales from the base
// instance so generated reprices and adds stay in the catalog's own
// profit/weight regime instead of distorting it.
func (s *Simulation) initChurnScales() {
	var maxP, sumW float64
	for _, it := range s.base.Items {
		if it.Profit > maxP {
			maxP = it.Profit
		}
		sumW += it.Weight
	}
	s.churnMaxProfit = maxP
	s.churnMeanWeight = sumW / float64(len(s.base.Items))
	s.shadowN = s.base.N()
}

// nextBatch draws one deterministic mutation batch from the churn
// stream. Adds land at the shadow length so the same batch stages
// cleanly on every replica regardless of when it catches up.
func (s *Simulation) nextBatch() []epoch.Mutation {
	if s.churnSrc == nil {
		s.churnSrc = s.src.Derive("churn")
	}
	ops := s.cfg.Churn.Ops
	batch := make([]epoch.Mutation, 0, ops)
	for k := 0; k < ops; k++ {
		roll := s.churnSrc.Float64()
		switch {
		case roll < 0.2:
			batch = append(batch, epoch.Mutation{
				Op:     epoch.OpAdd,
				Index:  uint32(s.shadowN),
				Profit: s.churnSrc.Float64() * s.churnMaxProfit * 1.5,
				Weight: s.churnMeanWeight * (0.5 + s.churnSrc.Float64()),
			})
			s.shadowN++
		case roll < 0.4:
			batch = append(batch, epoch.Mutation{
				Op:    epoch.OpRemove,
				Index: uint32(s.churnSrc.Intn(s.shadowN)),
			})
		default:
			batch = append(batch, epoch.Mutation{
				Op:     epoch.OpReprice,
				Index:  uint32(s.churnSrc.Intn(s.shadowN)),
				Profit: s.churnSrc.Float64() * s.churnMaxProfit * 1.5,
				Weight: s.churnMeanWeight * (0.5 + s.churnSrc.Float64()),
			})
		}
	}
	return batch
}

// scheduleSeal arms the next epoch seal.
func (s *Simulation) scheduleSeal() {
	at := s.now + s.expDuration(s.cfg.Churn.Interval)
	s.schedule(at, func() {
		if s.done() {
			return
		}
		if s.cfg.Churn.MaxSeals > 0 && s.seals >= s.cfg.Churn.MaxSeals {
			return
		}
		s.batches = append(s.batches, s.nextBatch())
		s.controlEpoch++
		s.seals++
		for _, r := range s.replicas {
			if r.up && !r.partitioned {
				s.catchUp(r, false)
			}
		}
		if s.cfg.FlashCrowd.Queries > 0 {
			s.scheduleFlashCrowd()
		}
		s.scheduleSeal()
	})
}

// catchUp replays every mutation batch the replica has not sealed yet,
// in order. At a seal event this is the single new batch; at a
// partition heal or a restart it is the backlog the replica missed
// while unreachable — the churn-during-partition recovery path.
func (s *Simulation) catchUp(r *replica, healing bool) {
	for r.sealedThrough < len(s.batches) {
		batch := s.batches[r.sealedThrough]
		if err := r.mgr.StageAll(batch); err != nil {
			panic(fmt.Sprintf("sim: replica %d stage batch %d: %v", r.id, r.sealedThrough, err))
		}
		if _, err := r.mgr.Seal(s.sealCtx()); err != nil {
			panic(fmt.Sprintf("sim: replica %d seal %d: %v", r.id, r.sealedThrough+1, err))
		}
		r.sealedThrough++
		if healing {
			s.catchUpSeals++
		}
	}
}

// sealCtx returns the context replica seals derive under: the
// Run-scoped context while the event loop is live, Background during
// construction.
func (s *Simulation) sealCtx() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// scheduleFlashCrowd injects the post-seal burst. Burst arrivals read
// the control epoch at execution time like every other arrival, so
// they pin the epoch that was just sealed.
func (s *Simulation) scheduleFlashCrowd() {
	interval := s.cfg.FlashCrowd.ArrivalInterval
	if interval <= 0 {
		interval = s.cfg.ArrivalInterval / 10
		if interval <= 0 {
			interval = 100 * time.Microsecond
		}
	}
	burst := s.src.Derive("flash")
	at := s.now
	n := s.base.N()
	for q := 0; q < s.cfg.FlashCrowd.Queries; q++ {
		at += time.Duration(float64(interval) * burst.ExpFloat64())
		item := burst.Intn(n)
		issuedAt := at
		s.schedule(at, func() { s.dispatch(item, s.controlEpoch, issuedAt, 0, nil) })
	}
	s.flashQueries += s.cfg.FlashCrowd.Queries
}

// schedulePartition arms the partition window: the lowest-id replicas
// become unreachable at At and heal (with seal catch-up) at
// At+Duration.
func (s *Simulation) schedulePartition() {
	cut := s.cfg.Partition.Replicas
	if cut <= 0 {
		cut = len(s.replicas) / 2
	}
	if cut < 1 {
		cut = 1
	}
	if cut >= len(s.replicas) {
		cut = len(s.replicas) - 1
	}
	s.schedule(s.cfg.Partition.At, func() {
		for _, r := range s.replicas[:cut] {
			r.partitioned = true
		}
		s.partitions++
	})
	s.schedule(s.cfg.Partition.At+s.cfg.Partition.Duration, func() {
		for _, r := range s.replicas[:cut] {
			r.partitioned = false
			if r.up && s.dynamic {
				s.catchUp(r, true)
			}
		}
	})
}

// answer serves one query at the pinned epoch. Static simulations
// query the live LCA (the paper's w.h.p. consistency mechanism);
// dynamic ones serve from the sealed epoch's materialized rule — the
// artifact-store semantics — and fail loudly when the replica has not
// sealed (or no longer retains) the pinned epoch, which surfaces as a
// failover to a replica that has it.
func (s *Simulation) answer(r *replica, item int, ep engine.EpochID) (bool, error) {
	if !s.dynamic {
		return r.lca.Query(s.ctx, item)
	}
	snap, ok := r.mgr.Snapshot(ep)
	if !ok {
		return false, fmt.Errorf("sim: replica %d does not hold epoch %d (sealed through %d)",
			r.id, uint64(ep), r.sealedThrough)
	}
	if item >= snap.Instance.N() {
		return false, nil
	}
	return snap.Rule.Decide(item, snap.Instance.Items[item]), nil
}

// itemSpace is the index range client arrivals draw from: the base
// instance's N. Items added by churn extend the index space of later
// epochs, but clients of this simulation query the original catalog.
func (s *Simulation) itemSpace() int {
	if s.dynamic {
		return s.base.N()
	}
	return s.access.N()
}
