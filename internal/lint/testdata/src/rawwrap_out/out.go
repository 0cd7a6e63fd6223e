// Package rawwrap_out is outside rawwrap's scope (the "_out" suffix
// stands in for internal/engine, the one package allowed to wrap):
// the same wrapper draws no diagnostic.
package rawwrap_out

import (
	"context"

	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// ChainLink wraps an Access, as engine middleware legitimately does.
type ChainLink struct {
	inner oracle.Access
}

// QueryItem forwards.
func (c *ChainLink) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	return c.inner.QueryItem(ctx, i)
}

// N forwards.
func (c *ChainLink) N() int { return c.inner.N() }

// Capacity forwards.
func (c *ChainLink) Capacity() float64 { return c.inner.Capacity() }

// SampleFrame forwards.
func (c *ChainLink) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	return c.inner.SampleFrame(ctx, src, dst)
}

// Sample draws one item as a one-draw frame.
func (c *ChainLink) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := oracle.SampleOne(ctx, c, src)
	return d.Index, d.Item, err
}
