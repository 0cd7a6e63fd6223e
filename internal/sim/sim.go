// Package sim is a deterministic discrete-event simulator for LCA
// replica fleets under failure injection.
//
// The LCA model's killer operational property is statelessness: a
// replica that crashes loses nothing, because there is nothing to
// lose — every query recomputes its answer from the shared seed and
// fresh samples. This package makes that claim measurable. It
// simulates a fleet of replicas (each wrapping a REAL core.LCAKP, not
// a mock), a load balancer that retries failed queries on other
// replicas, clients issuing query streams, and a failure injector that
// crashes and restarts replicas on schedule. The collector then
// answers the questions an operator would ask: what availability did
// clients see, were answers consistent across replicas and across
// failovers, and what did retries cost?
//
// The simulation is deterministic given its seed: the event queue is
// ordered by (time, sequence), and all randomness flows from
// rng.Source streams.
package sim

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/epoch"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/stats"
)

// Sentinel errors.
var (
	// ErrBadConfig indicates invalid simulation parameters.
	ErrBadConfig = errors.New("sim: invalid configuration")
	// errAllReplicasDown marks a query that exhausted its retries.
	errAllReplicasDown = errors.New("sim: all replicas down")
)

// event is one scheduled action.
type event struct {
	at  time.Duration
	seq uint64 // tie-break for determinism
	fn  func()
}

// eventQueue is a min-heap over (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push appends an event (heap.Interface).
func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

// Pop removes the last event (heap.Interface).
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Config parameterizes a simulation run.
type Config struct {
	// Replicas is the fleet size (>= 1).
	Replicas int
	// Params configures every replica's LCA (shared seed!).
	Params core.Params
	// Queries is the number of client queries to issue.
	Queries int
	// ArrivalInterval is the mean inter-arrival time of queries
	// (exponential); 0 selects 1ms.
	ArrivalInterval time.Duration
	// ServiceTime is the mean per-query service time at a replica
	// (exponential); 0 selects 5ms.
	ServiceTime time.Duration
	// MTBF is each replica's mean time between failures (exponential);
	// 0 disables failure injection.
	MTBF time.Duration
	// RepairTime is the mean crash-to-restart time (exponential);
	// 0 selects 50ms (only used when MTBF > 0).
	RepairTime time.Duration
	// MaxRetries bounds per-query failover attempts; 0 selects
	// Replicas (try everyone once).
	MaxRetries int
	// Policy selects the load-balancing policy: PolicyRandom (default)
	// picks a uniform healthy replica, PolicyLeastBusy the one whose
	// queue drains soonest, PolicyPowerOfTwo samples two distinct
	// healthy replicas and keeps the less busy one.
	Policy Policy
	// Seed drives all simulation randomness.
	Seed uint64

	// Churn schedules epoch seals over a mutating instance; requires
	// NewDynamic (see churn.go).
	Churn ChurnConfig
	// FlashCrowd schedules a post-seal query burst; requires Churn.
	FlashCrowd FlashCrowdConfig
	// Partition schedules one deterministic unreachability window.
	Partition PartitionConfig
}

// Policy is a load-balancing policy.
type Policy uint8

// Load-balancing policies.
const (
	// PolicyRandom routes to a uniformly random healthy replica.
	PolicyRandom Policy = iota
	// PolicyLeastBusy routes to the healthy replica whose FIFO queue
	// drains soonest.
	PolicyLeastBusy
	// PolicyPowerOfTwo draws two distinct healthy replicas uniformly and
	// routes to the one whose queue drains sooner — the power-of-two-
	// choices rule the serving gateway's router uses (internal/gateway),
	// simulated here so its balance/availability trade-off is measurable
	// against the other policies.
	PolicyPowerOfTwo
)

// validate applies defaults and checks bounds.
func (c *Config) validate() error {
	if c.Replicas < 1 {
		return fmt.Errorf("%w: replicas=%d", ErrBadConfig, c.Replicas)
	}
	if c.Queries < 1 {
		return fmt.Errorf("%w: queries=%d", ErrBadConfig, c.Queries)
	}
	if c.ArrivalInterval <= 0 {
		c.ArrivalInterval = time.Millisecond
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 5 * time.Millisecond
	}
	if c.RepairTime <= 0 {
		c.RepairTime = 50 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = c.Replicas
	}
	if c.Churn.Interval < 0 {
		return fmt.Errorf("%w: churn interval %v", ErrBadConfig, c.Churn.Interval)
	}
	if c.Churn.Interval > 0 {
		if c.Churn.Ops <= 0 {
			c.Churn.Ops = 4
		}
		if c.Churn.Retain <= 0 {
			c.Churn.Retain = 16
		}
	}
	if c.FlashCrowd.Queries > 0 && c.Churn.Interval == 0 {
		return fmt.Errorf("%w: flash crowd requires churn (bursts ride epoch seals)", ErrBadConfig)
	}
	if c.Partition.At > 0 && c.Partition.Duration <= 0 {
		c.Partition.Duration = 100 * time.Millisecond
	}
	return nil
}

// replica is one simulated LCA server.
type replica struct {
	id  int
	lca *core.LCAKP
	// mgr versions the replica's instance in dynamic simulations (nil
	// in static ones): each replica seals the shared mutation stream
	// independently, so cross-replica agreement is earned by the pure
	// derivation path, not by shared memory.
	mgr *epoch.Manager
	up  bool
	// partitioned marks the replica unreachable without state loss:
	// it is skipped by routing, fails queries in flight, and misses
	// seal events until the partition heals.
	partitioned bool
	// sealedThrough counts the mutation batches this replica has sealed
	// (its current epoch in dynamic mode).
	sealedThrough int
	// busyUntil models a single-server FIFO queue: new work starts no
	// earlier than the previous job finishes.
	busyUntil time.Duration

	crashes  int
	restarts int
	served   int
}

// QueryRecord is the collector's per-query outcome.
type QueryRecord struct {
	// Item is the queried index.
	Item int
	// Epoch is the instance version the query was pinned to: the
	// control-plane epoch current at issue time (always 0 in static
	// simulations). Consistency is judged per (item, epoch) — answers
	// legitimately change across seals, never within one.
	Epoch engine.EpochID
	// Answer is the membership answer (valid only when OK).
	Answer bool
	// OK reports whether any replica answered before retries ran out.
	OK bool
	// Replica is the id of the replica that answered (-1 if none).
	Replica int
	// Retries is the number of failovers before success or give-up.
	Retries int
	// IssuedAt and DoneAt are virtual timestamps.
	IssuedAt, DoneAt time.Duration
}

// Latency returns the query's virtual latency.
func (r QueryRecord) Latency() time.Duration { return r.DoneAt - r.IssuedAt }

// Result summarizes a simulation run.
type Result struct {
	Records []QueryRecord
	// Availability is the fraction of queries answered.
	Availability float64
	// Consistency is the fraction of answered items whose answers were
	// unanimous across ALL replicas and times that served them (items
	// answered once count as consistent).
	Consistency float64
	// MeanRetries is the average failover count per query.
	MeanRetries float64
	// P50 and P99 are virtual latency percentiles of answered queries.
	P50, P99 time.Duration
	// Crashes and Restarts are fleet-wide failure-injection totals.
	Crashes, Restarts int
	// Seals is the number of epoch seals the control plane issued
	// (0 in static simulations); the final epoch id equals Seals.
	Seals int
	// CatchUpSeals counts replica seals replayed while healing — at a
	// partition heal or a post-crash restart — rather than live at the
	// seal event.
	CatchUpSeals int
	// Partitions is the number of partition windows that opened.
	Partitions int
	// FlashQueries is how many burst queries the flash-crowd schedule
	// injected on top of Config.Queries.
	FlashQueries int
	// PerReplicaServed[i] is how many queries replica i answered.
	PerReplicaServed []int
	// VirtualDuration is the virtual time at which the last event ran.
	VirtualDuration time.Duration
}

// Simulation is one configured run.
type Simulation struct {
	cfg      Config
	access   oracle.Access
	replicas []*replica

	// Dynamic (churn) state: the base instance, the control plane's
	// sealed-batch history, and the epoch current at each instant.
	// See churn.go.
	base                            *knapsack.Instance
	dynamic                         bool
	controlEpoch                    engine.EpochID
	batches                         [][]epoch.Mutation
	seals                           int
	catchUpSeals                    int
	partitions                      int
	flashQueries                    int
	shadowN                         int
	churnSrc                        *rng.Source
	churnMaxProfit, churnMeanWeight float64

	queue eventQueue
	seq   uint64
	now   time.Duration

	// ctx is the Run-scoped context threaded into every replica query;
	// it is set at the top of Run and cleared on return.
	ctx context.Context

	src     *rng.Source
	records []QueryRecord
}

// New builds a simulation over the given oracle access. Every replica
// gets its own core.LCAKP configured with cfg.Params (same seed — the
// consistency mechanism under test).
func New(access oracle.Access, cfg Config) (*Simulation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Churn.Interval > 0 {
		return nil, fmt.Errorf("%w: churn requires NewDynamic (a mutable base instance)", ErrBadConfig)
	}
	s := &Simulation{
		cfg:    cfg,
		access: access,
		src:    rng.New(cfg.Seed).Derive("sim"),
	}
	for r := 0; r < cfg.Replicas; r++ {
		lca, err := core.NewLCAKP(access, cfg.Params)
		if err != nil {
			return nil, fmt.Errorf("sim: replica %d: %w", r, err)
		}
		s.replicas = append(s.replicas, &replica{id: r, lca: lca, up: true})
	}
	return s, nil
}

// schedule enqueues fn to run at absolute virtual time at.
func (s *Simulation) schedule(at time.Duration, fn func()) {
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
}

// expDuration draws an exponential duration with the given mean.
func (s *Simulation) expDuration(mean time.Duration) time.Duration {
	return time.Duration(float64(mean) * s.src.ExpFloat64())
}

// Run executes the simulation to completion and returns the summary.
// ctx cancels the run: the event loop stops at the next event boundary
// and Run returns the context's error (virtual time is unrelated to
// wall time, so cancellation is the only way to bound a runaway run).
func (s *Simulation) Run(ctx context.Context) (Result, error) {
	s.ctx = ctx
	defer func() { s.ctx = nil }()

	// Schedule query arrivals.
	arrivals := s.src.Derive("arrivals")
	queryItems := s.src.Derive("items")
	at := time.Duration(0)
	n := s.itemSpace()
	for q := 0; q < s.cfg.Queries; q++ {
		at += time.Duration(float64(s.cfg.ArrivalInterval) * arrivals.ExpFloat64())
		item := queryItems.Intn(n)
		issuedAt := at
		// The pinned epoch is read when the arrival fires, not here:
		// the client pins whatever the control plane has sealed by then.
		s.schedule(at, func() { s.dispatch(item, s.controlEpoch, issuedAt, 0, nil) })
	}

	// Schedule failure injection per replica.
	if s.cfg.MTBF > 0 {
		for _, r := range s.replicas {
			s.scheduleCrash(r)
		}
	}

	// Schedule churn and the partition window.
	if s.dynamic && s.cfg.Churn.Interval > 0 {
		s.scheduleSeal()
	}
	if s.cfg.Partition.At > 0 {
		s.schedulePartition()
	}

	// Drain the event queue, checking for cancellation at each event
	// boundary.
	for s.queue.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("sim: run aborted after %d records: %w", len(s.records), err)
		}
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		e.fn()
	}
	return s.summarize(), nil
}

// done reports whether every query has produced a record; once true,
// failure injection stops re-arming so the event queue can drain (the
// crash/restart cycle would otherwise self-perpetuate forever).
func (s *Simulation) done() bool {
	return len(s.records) >= s.cfg.Queries
}

// scheduleCrash arms the next crash for replica r.
func (s *Simulation) scheduleCrash(r *replica) {
	crashAt := s.now + s.expDuration(s.cfg.MTBF)
	s.schedule(crashAt, func() {
		if !r.up || s.done() {
			return
		}
		r.up = false
		r.crashes++
		repairAt := s.now + s.expDuration(s.cfg.RepairTime)
		s.schedule(repairAt, func() {
			// Restart is trivial: a stateless replica has no recovery
			// protocol — it is simply up again. In dynamic mode it
			// additionally replays the seals it slept through, which is
			// pure re-derivation, not state recovery.
			r.up = true
			r.restarts++
			if s.dynamic && !r.partitioned {
				s.catchUp(r, true)
			}
			if !s.done() {
				s.scheduleCrash(r)
			}
		})
	})
}

// dispatch routes a query (pinned to epoch ep) to a healthy replica,
// with failover. tried tracks replica ids already attempted.
func (s *Simulation) dispatch(item int, ep engine.EpochID, issuedAt time.Duration, retries int, tried map[int]bool) {
	if tried == nil {
		tried = make(map[int]bool, s.cfg.Replicas)
	}
	target := s.pickReplica(tried)
	if target == nil || retries >= s.cfg.MaxRetries {
		s.records = append(s.records, QueryRecord{
			Item:     item,
			Epoch:    ep,
			OK:       false,
			Replica:  -1,
			Retries:  retries,
			IssuedAt: issuedAt,
			DoneAt:   s.now,
		})
		return
	}
	tried[target.id] = true

	// Single-server FIFO queue: service starts when the replica frees
	// up, and occupies it until done.
	start := s.now
	if target.busyUntil > start {
		start = target.busyUntil
	}
	serviceDone := start + s.expDuration(s.cfg.ServiceTime)
	target.busyUntil = serviceDone
	s.schedule(serviceDone, func() {
		if !target.up || target.partitioned {
			// Crashed or cut off mid-service: fail over.
			s.dispatch(item, ep, issuedAt, retries+1, tried)
			return
		}
		answer, err := s.answer(target, item, ep)
		if err != nil {
			s.dispatch(item, ep, issuedAt, retries+1, tried)
			return
		}
		target.served++
		s.records = append(s.records, QueryRecord{
			Item:     item,
			Epoch:    ep,
			Answer:   answer,
			OK:       true,
			Replica:  target.id,
			Retries:  retries,
			IssuedAt: issuedAt,
			DoneAt:   s.now,
		})
	})
}

// pickReplica chooses a healthy, untried replica per the configured
// policy (nil if none remain).
func (s *Simulation) pickReplica(tried map[int]bool) *replica {
	candidates := make([]*replica, 0, len(s.replicas))
	for _, r := range s.replicas {
		if r.up && !r.partitioned && !tried[r.id] {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	switch s.cfg.Policy {
	case PolicyLeastBusy:
		best := candidates[0]
		for _, r := range candidates[1:] {
			if r.busyUntil < best.busyUntil {
				best = r
			}
		}
		return best
	case PolicyPowerOfTwo:
		if len(candidates) == 1 {
			return candidates[0]
		}
		// Two distinct draws: i uniform over n, j uniform over the rest.
		i := s.src.Intn(len(candidates))
		j := s.src.Intn(len(candidates) - 1)
		if j >= i {
			j++
		}
		if candidates[j].busyUntil < candidates[i].busyUntil {
			return candidates[j]
		}
		return candidates[i]
	default:
		return candidates[s.src.Intn(len(candidates))]
	}
}

// summarize folds the records into a Result.
func (s *Simulation) summarize() Result {
	res := Result{
		Records:          s.records,
		PerReplicaServed: make([]int, len(s.replicas)),
		VirtualDuration:  s.now,
	}
	answered := 0
	retrySum := 0
	latencies := make([]float64, 0, len(s.records))
	// Unanimity is judged per (item, epoch): a seal may legitimately
	// change an item's answer, so only same-epoch disagreement counts
	// against consistency.
	type itemEpoch struct {
		item int
		ep   engine.EpochID
	}
	answersByItem := make(map[itemEpoch][]bool)
	for _, rec := range s.records {
		retrySum += rec.Retries
		if !rec.OK {
			continue
		}
		answered++
		latencies = append(latencies, float64(rec.Latency()))
		k := itemEpoch{item: rec.Item, ep: rec.Epoch}
		answersByItem[k] = append(answersByItem[k], rec.Answer)
	}
	for _, r := range s.replicas {
		res.PerReplicaServed[r.id] = r.served
		res.Crashes += r.crashes
		res.Restarts += r.restarts
	}
	res.Seals = s.seals
	res.CatchUpSeals = s.catchUpSeals
	res.Partitions = s.partitions
	res.FlashQueries = s.flashQueries
	if len(s.records) > 0 {
		res.Availability = float64(answered) / float64(len(s.records))
		res.MeanRetries = float64(retrySum) / float64(len(s.records))
	}

	consistentItems, answeredItems := 0, 0
	for _, answers := range answersByItem {
		answeredItems++
		unanimous := true
		for _, a := range answers[1:] {
			if a != answers[0] {
				unanimous = false
				break
			}
		}
		if unanimous {
			consistentItems++
		}
	}
	if answeredItems > 0 {
		res.Consistency = float64(consistentItems) / float64(answeredItems)
	}
	if len(latencies) > 0 {
		res.P50 = time.Duration(stats.Quantile(latencies, 0.5))
		res.P99 = time.Duration(stats.Quantile(latencies, 0.99))
	}
	return res
}
