package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/rng"
)

// ErrNoReplicas indicates that no replica could be selected for a
// query (empty fleet).
var ErrNoReplicas = errors.New("gateway: no replicas available")

// router picks replicas (power-of-two-choices over in-flight load),
// retries failed attempts with exponential backoff, and optionally
// hedges slow requests with a duplicate to a second replica.
//
// Every aggressive trick here leans on the same theorem: replicas
// sharing a seed answer identically (Theorem 4.1), so retrying on a
// different replica, racing two replicas, or mixing answers from
// several replicas within one batch can never produce an inconsistent
// response — failover and hedging are pure latency/availability
// plays with no correctness surface.
type router struct {
	pool     *pool
	counters *counters

	maxAttempts int
	backoff     time.Duration
	// hedge > 0 is a fixed hedge delay; 0 selects the adaptive p95
	// delay; < 0 disables hedging.
	hedge time.Duration
	lat   *latencyWindow
	// rpcHist, when set, additionally records successful RPC latencies
	// for exposition (the window above only feeds the adaptive hedge).
	rpcHist *obs.Histogram

	// mu guards src: replica picks and backoff jitter. This randomness
	// is operational only — it can never affect an answer bit.
	mu  sync.Mutex
	src *rng.Source
}

// newRouter wires a router over the pool.
func newRouter(p *pool, c *counters, maxAttempts int, backoff, hedge time.Duration, routeSeed uint64) *router {
	return &router{
		pool:        p,
		counters:    c,
		maxAttempts: maxAttempts,
		backoff:     backoff,
		hedge:       hedge,
		lat:         &latencyWindow{},
		src:         rng.New(routeSeed).Derive("gateway-router"),
	}
}

// retryable reports whether an attempt error is worth a retry on
// another replica. Application-level responses (ErrRemote) are
// deterministic — by Definition 2.2 every replica would answer the
// same — so retrying them elsewhere only wastes attempts. Context
// expiry means the caller is gone. Everything else is a transport
// fault and a failover candidate.
func retryable(err error) bool {
	switch {
	case errors.Is(err, cluster.ErrRemote),
		errors.Is(err, cluster.ErrBadMessage),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// route answers one batch of indices of one (tenant, epoch), retrying
// across replicas until an answer arrives or attempts run out. Every
// frame — the first try, retries, and hedges — names the same vt, so a
// mid-rollover replica switch cannot mix epochs.
func (r *router) route(ctx context.Context, vt engine.VersionedTenant, indices []int) ([]bool, error) {
	var lastErr error
	var lastFailed *member
	for attempt := 0; attempt < r.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			lastErr = fmt.Errorf("gateway: query aborted: %w", err)
			break
		}
		m := r.pick(lastFailed)
		if m == nil {
			lastErr = ErrNoReplicas
			break
		}
		if attempt > 0 {
			r.counters.retries.Add(1)
			if m != lastFailed {
				r.counters.failovers.Add(1)
				//lint:alloc traced-only decision event on the retry path; the failed RPC it annotates cost a full timeout
				obs.AddWarnEvent(ctx, "gateway.failover",
					obs.String("to", m.addr), obs.Int("attempt", int64(attempt)))
			} else {
				//lint:alloc traced-only decision event on the retry path
				obs.AddWarnEvent(ctx, "gateway.retry",
					obs.String("replica", m.addr), obs.Int("attempt", int64(attempt)))
			}
		}
		answers, err := r.callMember(ctx, m, vt, indices)
		if err == nil {
			return answers, nil
		}
		lastErr = err
		if !retryable(err) {
			break
		}
		if m.markDown() {
			//lint:alloc traced-only decision event on the failure path
			obs.AddWarnEvent(ctx, "gateway.breaker_open", obs.String("replica", m.addr))
		}
		lastFailed = m
		if err := r.sleepBackoff(ctx, attempt); err != nil {
			lastErr = err
			break
		}
	}
	r.counters.errorsN.Add(1)
	return nil, lastErr
}

// sleepBackoff waits the exponential backoff for the given attempt
// (with up to 50% jitter), aborting early if ctx fires.
func (r *router) sleepBackoff(ctx context.Context, attempt int) error {
	if r.backoff <= 0 {
		return nil
	}
	d := r.backoff << attempt
	r.mu.Lock()
	jitter := time.Duration(r.src.Float64() * float64(d) / 2)
	r.mu.Unlock()
	timer := time.NewTimer(d + jitter)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("gateway: backoff aborted: %w", ctx.Err())
	}
}

// pick selects the target replica: two distinct uniformly random
// healthy members, keeping the one with fewer in-flight requests
// (power-of-two-choices). A member that just failed is avoided when an
// alternative exists; if no member is healthy, a random one is tried
// anyway — the health loop may simply not have noticed a recovery yet,
// and a stale "down" bit must not make the whole gateway refuse
// service while any replica might answer.
func (r *router) pick(avoid *member) *member {
	// Preference order, allocation-free (the per-pick candidate
	// snapshot used to be the routing path's only heap traffic):
	// healthy-minus-avoided, any healthy, anyone-minus-avoided, anyone.
	if m := r.pickEligible(avoid, true); m != nil {
		return m
	}
	if m := r.pickEligible(nil, true); m != nil {
		return m
	}
	if m := r.pickEligible(avoid, false); m != nil {
		return m
	}
	return r.pickEligible(nil, false)
}

// pickEligible runs power-of-two-choices over the members that pass
// the healthyOnly filter and are not the avoided one. Instead of
// snapshotting candidates it counts them and re-scans by ordinal; a
// breaker flipping between the passes at worst biases one pick, which
// the next attempt's own scan absorbs.
func (r *router) pickEligible(avoid *member, healthyOnly bool) *member {
	count := 0
	for _, m := range r.pool.members {
		if m != avoid && (!healthyOnly || m.brk.current() == breakerClosed) {
			count++
		}
	}
	switch count {
	case 0:
		return nil
	case 1:
		return r.nthEligible(0, avoid, healthyOnly)
	}
	r.mu.Lock()
	i := r.src.Intn(count)
	j := r.src.Intn(count - 1)
	r.mu.Unlock()
	if j >= i { // draw j from the slots excluding i
		j++
	}
	a, b := r.nthEligible(i, avoid, healthyOnly), r.nthEligible(j, avoid, healthyOnly)
	if a == nil {
		return b
	}
	if b != nil && b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}

// nthEligible returns the n-th (0-based) member passing the filter, or
// nil if the eligible set shrank below n+1 since it was counted.
func (r *router) nthEligible(n int, avoid *member, healthyOnly bool) *member {
	for _, m := range r.pool.members {
		if m == avoid || (healthyOnly && m.brk.current() != breakerClosed) {
			continue
		}
		if n == 0 {
			return m
		}
		n--
	}
	return nil
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	answers []bool
	err     error
	member  *member
	hedged  bool
}

// callMember issues the RPC to m, optionally racing a hedge replica:
// if no answer has arrived after the hedge delay, the same request is
// fired at a second replica and the first successful answer wins.
// Racing is consistency-safe because both replicas compute the same
// C(I, r) (Lemma 4.9 makes the shared rule reproducible across
// replicas). When callMember returns, the attempt still running is
// canceled: its RPC returns at once, its answer is discarded unread,
// and its replica no longer counts it in flight.
func (r *router) callMember(ctx context.Context, m *member, vt engine.VersionedTenant, indices []int) ([]bool, error) {
	r.counters.attempts.Add(1)
	delay := r.hedgeDelay()
	if delay <= 0 {
		res := r.issue(ctx, m, vt, indices, false)
		if res.err != nil && retryable(res.err) {
			if m.markDown() {
				//lint:alloc traced-only decision event on the failure path
				obs.AddWarnEvent(ctx, "gateway.breaker_open", obs.String("replica", m.addr))
			}
		}
		return res.answers, res.err
	}

	ctx, cancel := context.WithCancel(ctx) //lint:alloc hedged mode only: the attempts' shared cancel, one per RPC against a wire round trip
	defer cancel()
	ch := make(chan attemptResult, 2) //lint:alloc hedged-mode rendezvous: one channel per RPC against a wire round trip
	//lint:alloc hedged-mode attempt goroutine; the RPC it carries costs ~3 orders of magnitude more
	go func() { ch <- r.issue(ctx, m, vt, indices, false) }()
	timer := time.NewTimer(delay)
	defer timer.Stop()

	outstanding := 1
	hedged := false
	var firstErr error
	for outstanding > 0 {
		select {
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			m2 := r.pick(m)
			if m2 == nil || m2 == m {
				continue
			}
			r.counters.hedges.Add(1)
			r.counters.attempts.Add(1)
			outstanding++
			//lint:alloc traced-only decision event; fires at most once per hedged RPC, on the p95 tail only
			obs.AddWarnEvent(ctx, "gateway.hedge",
				obs.String("primary", m.addr), obs.String("hedge", m2.addr))
			//lint:alloc fires at most once per hedged RPC, on the p95 tail only
			go func() { ch <- r.issue(ctx, m2, vt, indices, true) }()
		case res := <-ch:
			outstanding--
			if res.err == nil {
				if res.hedged {
					r.counters.hedgeWins.Add(1)
				}
				return res.answers, nil
			}
			if retryable(res.err) {
				if res.member.markDown() {
					//lint:alloc traced-only decision event on the failure path
					obs.AddWarnEvent(ctx, "gateway.breaker_open", obs.String("replica", res.member.addr))
				}
			}
			if firstErr == nil {
				firstErr = res.err
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("gateway: query aborted: %w", ctx.Err())
		}
	}
	return nil, firstErr
}

// issue performs one RPC on one checked-out connection and feeds the
// latency window (and the member's breaker) on success. The served
// epoch the replica echoes is vt.Epoch itself (a replica serves exactly
// the named epoch or errors), so it needs no further inspection here.
func (r *router) issue(ctx context.Context, m *member, vt engine.VersionedTenant, indices []int, hedged bool) attemptResult {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	// Each replica RPC attempt is one probe in the gateway span's
	// Def 2.2 cost ledger (the replica's own oracle accesses are charged
	// to its engine span in the same trace).
	obs.AddProbes(ctx, 1)
	c, err := m.get(ctx)
	if err != nil {
		return attemptResult{err: err, member: m, hedged: hedged}
	}
	start := time.Now()
	answers, _, err := c.InSolutionBatchEpochTenant(ctx, vt.Tenant, vt.Epoch, indices)
	m.put(c)
	if err == nil {
		d := time.Since(start)
		r.lat.add(d)
		if r.rpcHist != nil {
			r.rpcHist.ObserveExemplar(d, obs.TraceIDFromContext(ctx), "")
		}
		m.markUp()
	}
	return attemptResult{answers: answers, err: err, member: m, hedged: hedged}
}

// hedgeDelay resolves the delay before a hedge fires: the configured
// fixed value, or (when adaptive) the p95 of recently observed RPC
// latencies — hedges then target precisely the slowest ~5% of
// requests, keeping the duplicate-work rate bounded.
func (r *router) hedgeDelay() time.Duration {
	if r.hedge > 0 {
		return r.hedge
	}
	if r.hedge < 0 {
		return 0
	}
	p95 := r.lat.p95()
	if p95 <= 0 {
		return 0 // not enough signal yet; no hedging
	}
	const floor = 200 * time.Microsecond
	if p95 < floor {
		return floor
	}
	return p95
}

// latencyWindowSize bounds the latency ring buffer.
const latencyWindowSize = 128

// minLatencySamples is the observation count below which the adaptive
// hedge stays off.
const minLatencySamples = 20

// latencyWindow is a fixed-size ring of recent successful RPC
// latencies.
type latencyWindow struct {
	mu  sync.Mutex
	buf [latencyWindowSize]time.Duration
	n   int // total observations (saturates at len(buf) for reads)
	idx int
}

// add records one latency.
func (w *latencyWindow) add(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.idx] = d
	w.idx = (w.idx + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// p95 returns the 95th-percentile latency of the window, or 0 when
// fewer than minLatencySamples observations exist.
func (w *latencyWindow) p95() time.Duration {
	w.mu.Lock()
	n := w.n
	vals := make([]time.Duration, n) //lint:alloc adaptive-hedge percentile over a bounded 64-entry window, per hedged RPC
	copy(vals, w.buf[:n])
	w.mu.Unlock()
	if n < minLatencySamples {
		return 0
	}
	//lint:alloc sort.Slice boxing over the bounded percentile window; dominated by the RPC it tunes
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[(n*95)/100]
}
