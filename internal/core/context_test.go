package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// cancelAfterSamples is an oracle access that, while armed, cancels
// its context in the frame that serves its after-th weighted sample,
// then counts every access call made after the cancellation fired.
type cancelAfterSamples struct {
	inner  oracle.Access
	cancel context.CancelFunc
	after  int64

	armed      atomic.Bool
	samples    atomic.Int64
	fired      atomic.Bool
	postCancel atomic.Int64
}

func (c *cancelAfterSamples) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	if c.fired.Load() {
		c.postCancel.Add(1)
	}
	return c.inner.QueryItem(ctx, i)
}

func (c *cancelAfterSamples) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	if c.fired.Load() {
		c.postCancel.Add(1)
	}
	if c.armed.Load() {
		m := int64(len(dst))
		if n := c.samples.Add(m); n >= c.after && n-m < c.after {
			c.cancel()
			c.fired.Store(true)
		}
	}
	return c.inner.SampleFrame(ctx, src, dst)
}

func (c *cancelAfterSamples) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := oracle.SampleOne(ctx, c, src)
	return d.Index, d.Item, err
}

func (c *cancelAfterSamples) N() int            { return c.inner.N() }
func (c *cancelAfterSamples) Capacity() float64 { return c.inner.Capacity() }

// TestQueryCancellationMidRun cancels the context partway through the
// sampling pipeline and checks the three cancellation guarantees: the
// run aborts within one frame call, the error wraps
// context.Canceled, and the LCAKP stays reusable — a later run with
// the same fresh randomness answers exactly as a run before the abort.
func TestQueryCancellationMidRun(t *testing.T) {
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: 300, Seed: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	slice, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := &cancelAfterSamples{inner: slice, cancel: cancel, after: 10}

	lca, err := NewLCAKP(wrapped, Params{Epsilon: 0.2, Seed: 9})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}

	// Reference answers before the aborted run, with pinned fresh
	// randomness.
	background := context.Background()
	queryItems := []int{0, 7, 42, 150, 299}
	before := make([]bool, len(queryItems))
	for k, i := range queryItems {
		before[k], err = lca.QueryWithRandomness(background, i, rng.New(77).DeriveIndex("reuse", k))
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
	}

	// The aborted run: the access cancels ctx in the frame that serves
	// its 10th armed sample (pipelines need far more), so the sampling
	// loop must stop before its next frame call.
	wrapped.armed.Store(true)
	_, err = lca.Query(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted Query error = %v, want wrapped context.Canceled", err)
	}
	post := wrapped.postCancel.Load()
	wrapped.armed.Store(false)
	wrapped.fired.Store(false)
	if post > 1 {
		t.Errorf("%d accesses after cancellation, want at most the one in flight", post)
	}

	// Reusability: the same LCAKP, same fresh randomness, identical
	// answers after the abort.
	for k, i := range queryItems {
		after, err := lca.QueryWithRandomness(background, i, rng.New(77).DeriveIndex("reuse", k))
		if err != nil {
			t.Fatalf("post-abort query %d: %v", i, err)
		}
		if after != before[k] {
			t.Errorf("item %d: answer flipped after aborted run: %v -> %v", i, before[k], after)
		}
	}
}

// TestQueryPreCanceledContext checks the fast path: a context canceled
// before the query starts aborts before any oracle access.
func TestQueryPreCanceledContext(t *testing.T) {
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: 100, Seed: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	slice, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	lca, err := NewLCAKP(slice, Params{Epsilon: 0.2, Seed: 9})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lca.Query(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query error = %v, want context.Canceled", err)
	}
	if _, err := lca.QueryBatch(ctx, []int{0, 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryBatch error = %v, want context.Canceled", err)
	}
}
