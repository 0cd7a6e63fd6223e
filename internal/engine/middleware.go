// Package engine is the context-aware query pipeline of the serving
// system: one composable place to intercept, instrument, and bound the
// oracle accesses an LCA run makes.
//
// The package has two halves:
//
//   - a Middleware chain over oracle.Access. Every cross-cutting
//     concern — query counting, query budgets, latency and fault
//     injection, per-query metrics — is a Middleware, and Chain
//     composes them. This replaces the ad-hoc wrapper types that used
//     to live in internal/oracle: there is exactly one way to
//     intercept a query.
//   - an Engine over a Querier (core.LCAKP satisfies it), which runs
//     membership queries under a context and returns a per-query
//     Metrics record (point queries, samples drawn, wall time,
//     outcome) plus cumulative Totals. The replica servers and the
//     experiment harness surface these records instead of keeping
//     private counters.
//
// Errors stay inspectable through any chain depth: budget middleware
// returns errors satisfying errors.Is(err, oracle.ErrBudgetExhausted),
// latency middleware returns wrapped ctx.Err() when the context fires,
// and every middleware forwards inner errors unmodified.
package engine

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"lcakp/internal/knapsack"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// Middleware wraps an oracle.Access with one cross-cutting concern.
type Middleware func(next oracle.Access) oracle.Access

// Chain applies middlewares around base. The first middleware is
// outermost: Chain(base, a, b) yields a(b(base)), so a sees every
// access first.
func Chain(base oracle.Access, mws ...Middleware) oracle.Access {
	wrapped := base
	for i := len(mws) - 1; i >= 0; i-- {
		wrapped = mws[i](wrapped)
	}
	return wrapped
}

// access is the generic middleware node: hooks around an inner Access.
// Nil hooks forward untouched; N and Capacity always forward (the
// model gives both to the algorithm for free, so no middleware meters
// them). Sampling has one hook, over frames: a middleware charges a
// frame once, exactly as the draws of one-draw frames that stop at the
// first failure would be charged one by one.
type access struct {
	inner       oracle.Access
	queryItem   func(ctx context.Context, i int) (knapsack.Item, error)
	sampleFrame func(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error)
}

var _ oracle.Access = (*access)(nil)

func (a *access) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	if a.queryItem != nil {
		return a.queryItem(ctx, i)
	}
	return a.inner.QueryItem(ctx, i)
}

func (a *access) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	if a.sampleFrame != nil {
		return a.sampleFrame(ctx, src, dst)
	}
	return a.inner.SampleFrame(ctx, src, dst)
}

func (a *access) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := oracle.SampleOne(ctx, a, src)
	return d.Index, d.Item, err
}

// attempted is how many draws a frame that filled n of them charges:
// the draws it filled, plus the one that failed, if any. Per-draw
// access charges a failed attempt too.
func attempted(n int, err error) int64 {
	if err != nil {
		return int64(n) + 1
	}
	return int64(n)
}

// gatedFrame runs a frame through a per-draw gate over tally, an
// access count shared by concurrent callers, and charges tally as
// one-draw calls that stop at the first failing one would. pass(t) is
// how many draws the gate lets through while tally stands at t. The
// frame forwards that prefix to next; when the gate cut it short, it
// then fails with fail(), charging the prefix plus the refused draw.
// When next fails first, the draws after its failure were never
// attempted, so their charge goes back to tally.
func gatedFrame(ctx context.Context, next oracle.Access, src *rng.Source, dst []oracle.Draw,
	tally *atomic.Int64, pass func(t int64) int64, fail func() error) (int, error) {
	var ok, charge int64
	for {
		t := tally.Load()
		ok = min(max(pass(t), 0), int64(len(dst)))
		charge = ok
		if ok < int64(len(dst)) {
			charge++
		}
		if tally.CompareAndSwap(t, t+charge) {
			break
		}
	}
	if ok > 0 {
		n, err := next.SampleFrame(ctx, src, dst[:ok])
		if err != nil {
			tally.Add(attempted(n, err) - charge)
			return n, err
		}
	}
	if ok < int64(len(dst)) {
		return int(ok), fail()
	}
	return len(dst), nil
}

func (a *access) N() int            { return a.inner.N() }
func (a *access) Capacity() float64 { return a.inner.Capacity() }

// Counter tallies point queries and weighted samples with atomic
// counters — the measurement device for all query-complexity
// experiments. Install it in a chain with WithCounter.
type Counter struct {
	queries atomic.Int64
	samples atomic.Int64
}

// Queries returns the number of point queries made so far.
func (c *Counter) Queries() int64 { return c.queries.Load() }

// Samples returns the number of weighted samples drawn so far.
func (c *Counter) Samples() int64 { return c.samples.Load() }

// Total returns queries + samples, the paper's combined query
// complexity measure.
func (c *Counter) Total() int64 { return c.Queries() + c.Samples() }

// Reset zeroes both counters.
func (c *Counter) Reset() {
	c.queries.Store(0)
	c.samples.Store(0)
}

// WithCounter counts every access into c before forwarding.
func WithCounter(c *Counter) Middleware {
	return func(next oracle.Access) oracle.Access {
		return &access{
			inner: next,
			queryItem: func(ctx context.Context, i int) (knapsack.Item, error) {
				c.queries.Add(1)
				return next.QueryItem(ctx, i)
			},
			sampleFrame: func(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
				n, err := next.SampleFrame(ctx, src, dst)
				c.samples.Add(attempted(n, err))
				return n, err
			},
		}
	}
}

// Counting is the counting wrapper re-expressed over the middleware
// chain: an Access whose every query and sample is tallied, with the
// Counter's read methods promoted. It is the drop-in successor of the
// old oracle.Counting.
type Counting struct {
	oracle.Access
	*Counter
}

// NewCounting wraps access with counters via WithCounter.
func NewCounting(inner oracle.Access) *Counting {
	c := &Counter{}
	return &Counting{Access: Chain(inner, WithCounter(c)), Counter: c}
}

// Budget is a shared combined query+sample allowance. The lower-bound
// games use it to enforce the q-query limit on candidate strategies.
type Budget struct {
	budget int64
	spent  atomic.Int64
}

// NewBudget allocates a budget of n total accesses.
func NewBudget(n int64) *Budget { return &Budget{budget: n} }

// Spent returns how much of the budget has been consumed (it may
// exceed the budget by the number of rejected calls).
func (b *Budget) Spent() int64 { return b.spent.Load() }

// Remaining returns the unused budget (never negative).
func (b *Budget) Remaining() int64 {
	r := b.budget - b.spent.Load()
	if r < 0 {
		return 0
	}
	return r
}

// take consumes one unit, reporting false once the budget is spent.
func (b *Budget) take() bool { return b.spent.Add(1) <= b.budget }

// WithBudget fails accesses once b is spent. A sample frame forwards
// only the prefix the budget still covers, then fails, and moves
// Spent as that many draws and the refused one would. The returned
// error satisfies errors.Is(err, oracle.ErrBudgetExhausted) through
// any number of outer layers.
func WithBudget(b *Budget) Middleware {
	return func(next oracle.Access) oracle.Access {
		return &access{
			inner: next,
			queryItem: func(ctx context.Context, i int) (knapsack.Item, error) {
				if !b.take() {
					obs.AddWarnEvent(ctx, "engine.budget_exhausted", obs.Int("item", int64(i)), obs.Int("budget", b.budget))
					return knapsack.Item{}, fmt.Errorf("engine: point query %d: %w", i, oracle.ErrBudgetExhausted)
				}
				return next.QueryItem(ctx, i)
			},
			sampleFrame: func(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
				return gatedFrame(ctx, next, src, dst, &b.spent, func(spent int64) int64 { return b.budget - spent }, func() error {
					obs.AddWarnEvent(ctx, "engine.budget_exhausted", obs.Int("budget", b.budget))
					return fmt.Errorf("engine: sample: %w", oracle.ErrBudgetExhausted)
				})
			},
		}
	}
}

// Budgeted is the budget-limited wrapper re-expressed over the
// middleware chain, the drop-in successor of the old oracle.Budgeted.
type Budgeted struct {
	oracle.Access
	*Budget
}

// NewBudgeted wraps access with a combined query+sample budget via
// WithBudget.
func NewBudgeted(inner oracle.Access, budget int64) *Budgeted {
	b := NewBudget(budget)
	return &Budgeted{Access: Chain(inner, WithBudget(b)), Budget: b}
}

// WithLatency delays every access by d before forwarding, honoring
// context cancellation and deadlines: if ctx fires during the delay
// the access fails with a wrapped ctx.Err() and the inner access is
// never touched. A sample frame is one access: it is delayed once. It
// is the fault-injection middleware for deadline and slow-backend
// testing.
func WithLatency(d time.Duration) Middleware {
	sleep := func(ctx context.Context) error {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("engine: access delayed %v: %w", d, ctx.Err())
		}
	}
	return func(next oracle.Access) oracle.Access {
		return &access{
			inner: next,
			queryItem: func(ctx context.Context, i int) (knapsack.Item, error) {
				if err := sleep(ctx); err != nil {
					return knapsack.Item{}, err
				}
				return next.QueryItem(ctx, i)
			},
			sampleFrame: func(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
				if err := sleep(ctx); err != nil {
					return 0, err
				}
				return next.SampleFrame(ctx, src, dst)
			},
		}
	}
}

// WithFaults fails every k-th access (k = every) with err, forwarding
// the rest — deterministic fault injection for retry and failover
// tests. Each draw of a sample frame is one access: a frame forwards
// the prefix before its failing draw, then fails. every <= 0 disables
// injection.
func WithFaults(every int64, err error) Middleware {
	var calls atomic.Int64
	inject := func() bool {
		return every > 0 && calls.Add(1)%every == 0
	}
	return func(next oracle.Access) oracle.Access {
		return &access{
			inner: next,
			queryItem: func(ctx context.Context, i int) (knapsack.Item, error) {
				if inject() {
					obs.AddWarnEvent(ctx, "engine.fault_injected", obs.Int("item", int64(i)))
					return knapsack.Item{}, fmt.Errorf("engine: injected fault: %w", err)
				}
				return next.QueryItem(ctx, i)
			},
			sampleFrame: func(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
				pass := func(t int64) int64 {
					if every <= 0 {
						return math.MaxInt64
					}
					return every - 1 - t%every
				}
				return gatedFrame(ctx, next, src, dst, &calls, pass, func() error {
					obs.AddWarnEvent(ctx, "engine.fault_injected")
					return fmt.Errorf("engine: injected fault: %w", err)
				})
			},
		}
	}
}
