package rawwrap

import (
	"context"

	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// Client holds an Access but does not implement the interface — a
// consumer, not a wrapper.
type Client struct {
	access oracle.Access
}

// Lookup uses the held access.
func (c *Client) Lookup(ctx context.Context, i int) (knapsack.Item, error) {
	return c.access.QueryItem(ctx, i)
}

// FlatAccess implements Access over raw data without wrapping
// another Access — a backend, not middleware.
type FlatAccess struct {
	items    []knapsack.Item
	capacity float64
}

// QueryItem serves from the slice.
func (f *FlatAccess) QueryItem(_ context.Context, i int) (knapsack.Item, error) {
	return f.items[i], nil
}

// N returns the item count.
func (f *FlatAccess) N() int { return len(f.items) }

// Capacity returns the weight limit.
func (f *FlatAccess) Capacity() float64 { return f.capacity }

// SampleFrame draws uniformly (a toy backend).
func (f *FlatAccess) SampleFrame(_ context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	for k := range dst {
		i := src.Intn(len(f.items))
		dst[k] = oracle.Draw{Index: i, Item: f.items[i]}
	}
	return len(dst), nil
}

// Sample draws one item as a one-draw frame.
func (f *FlatAccess) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := oracle.SampleOne(ctx, f, src)
	return d.Index, d.Item, err
}
