// Package rawwrap is the failing golden package for the rawwrap
// analyzer: an oracle.Access implementation that wraps another Access
// outside the engine middleware chain.
package rawwrap

import (
	"context"

	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// CountingAccess is exactly the ad-hoc middleware the engine chain
// replaced: it intercepts accesses invisibly to per-query Metrics.
type CountingAccess struct { // want `implements oracle.Access and wraps another Access in field inner`
	inner oracle.Access
	n     int64
}

// QueryItem forwards to the wrapped access.
func (c *CountingAccess) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	c.n++
	return c.inner.QueryItem(ctx, i)
}

// N forwards to the wrapped access.
func (c *CountingAccess) N() int { return c.inner.N() }

// Capacity forwards to the wrapped access.
func (c *CountingAccess) Capacity() float64 { return c.inner.Capacity() }

// SampleFrame forwards to the wrapped access.
func (c *CountingAccess) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	c.n += int64(len(dst))
	return c.inner.SampleFrame(ctx, src, dst)
}

// Sample draws one item as a one-draw frame.
func (c *CountingAccess) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := oracle.SampleOne(ctx, c, src)
	return d.Index, d.Item, err
}
