// Package engine is the context-aware query pipeline of the serving
// system: one composable place to intercept and instrument the
// oracle accesses an LCA run makes.
//
// The package has two halves:
//
//   - a Middleware chain over oracle.Access. Every cross-cutting
//     concern — query counting, per-query metrics — is a Middleware,
//     and Chain composes them: there is exactly one way to intercept
//     a query.
//   - an Engine over a Querier (core.LCAKP satisfies it), which runs
//     membership queries under a context and returns a per-query
//     Metrics record (point queries, samples drawn, wall time,
//     outcome) plus cumulative Totals. The replica servers and the
//     experiment harness surface these records instead of keeping
//     private counters.
//
// Errors stay inspectable through any chain depth: every middleware
// forwards inner errors unmodified.
package engine

import (
	"context"
	"sync/atomic"

	"lcakp/internal/knapsack"
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
