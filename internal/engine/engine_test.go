package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// testAccess builds a tiny normalized instance and its slice oracle.
func testAccess(t *testing.T) oracle.Access {
	t.Helper()
	in := &knapsack.Instance{
		Items: []knapsack.Item{
			{Profit: 0.5, Weight: 0.3},
			{Profit: 0.3, Weight: 0.4},
			{Profit: 0.2, Weight: 0.3},
		},
		Capacity: 0.5,
	}
	o, err := oracle.NewSliceOracle(in)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	return o
}

func TestCountingCounts(t *testing.T) {
	ctx := context.Background()
	c := NewCounting(testAccess(t))
	src := rng.New(1)
	for i := 0; i < 5; i++ {
		if _, err := c.QueryItem(ctx, i%3); err != nil {
			t.Fatalf("QueryItem: %v", err)
		}
	}
	for i := 0; i < 7; i++ {
		if _, _, err := c.Sample(ctx, src); err != nil {
			t.Fatalf("Sample: %v", err)
		}
	}
	if c.Queries() != 5 || c.Samples() != 7 || c.Total() != 12 {
		t.Errorf("counts = %d/%d/%d, want 5/7/12", c.Queries(), c.Samples(), c.Total())
	}
	c.Reset()
	if c.Total() != 0 {
		t.Errorf("Reset left total %d", c.Total())
	}
	// N and Capacity are free.
	_ = c.N()
	_ = c.Capacity()
	if c.Total() != 0 {
		t.Errorf("N/Capacity counted as accesses")
	}
}

func TestBudgetedEnforcesBudget(t *testing.T) {
	ctx := context.Background()
	b := NewBudgeted(testAccess(t), 3)
	src := rng.New(1)
	if _, err := b.QueryItem(ctx, 0); err != nil {
		t.Fatalf("first query: %v", err)
	}
	if _, _, err := b.Sample(ctx, src); err != nil {
		t.Fatalf("first sample: %v", err)
	}
	if _, err := b.QueryItem(ctx, 1); err != nil {
		t.Fatalf("third access: %v", err)
	}
	if _, err := b.QueryItem(ctx, 2); !errors.Is(err, oracle.ErrBudgetExhausted) {
		t.Errorf("fourth access error = %v, want ErrBudgetExhausted", err)
	}
	if _, _, err := b.Sample(ctx, src); !errors.Is(err, oracle.ErrBudgetExhausted) {
		t.Errorf("fifth access error = %v, want ErrBudgetExhausted", err)
	}
	if b.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", b.Remaining())
	}
	if b.Spent() < 3 {
		t.Errorf("Spent = %d, want >= 3", b.Spent())
	}
}

// TestBudgetErrorThroughDeepStack drives an exhausted budget through a
// 3-deep middleware chain (counting over latency over budget) and
// checks errors.Is still identifies oracle.ErrBudgetExhausted at the
// top — the error-normalization contract.
func TestBudgetErrorThroughDeepStack(t *testing.T) {
	ctx := context.Background()
	counter := &Counter{}
	budget := NewBudget(2)
	chained := Chain(testAccess(t),
		WithCounter(counter),
		WithLatency(time.Microsecond),
		WithBudget(budget),
	)
	src := rng.New(2)
	if _, err := chained.QueryItem(ctx, 0); err != nil {
		t.Fatalf("access 1: %v", err)
	}
	if _, _, err := chained.Sample(ctx, src); err != nil {
		t.Fatalf("access 2: %v", err)
	}
	_, err := chained.QueryItem(ctx, 1)
	if !errors.Is(err, oracle.ErrBudgetExhausted) {
		t.Fatalf("access 3 error = %v, want ErrBudgetExhausted through 3 layers", err)
	}
	// The rejected access was still seen (and counted) by the outer
	// layers.
	if counter.Total() != 3 {
		t.Errorf("outer counter total = %d, want 3", counter.Total())
	}
}

// TestBudgetErrorThroughCore checks the same contract end to end: an
// LCA run over a budgeted access fails with an error that still
// satisfies errors.Is(err, oracle.ErrBudgetExhausted) after core's own
// wrapping.
func TestBudgetErrorThroughCore(t *testing.T) {
	lca, err := core.NewLCAKP(NewBudgeted(testAccess(t), 5), core.Params{Epsilon: 0.2, Seed: 3})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	_, err = lca.Query(context.Background(), 0)
	if !errors.Is(err, oracle.ErrBudgetExhausted) {
		t.Fatalf("Query error = %v, want ErrBudgetExhausted through core", err)
	}
}

func TestWithLatencyHonorsContext(t *testing.T) {
	inner := NewCounting(testAccess(t))
	slow := Chain(inner, WithLatency(10*time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := slow.QueryItem(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryItem error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled access took %v", elapsed)
	}
	// The inner access must never have been touched.
	if inner.Total() != 0 {
		t.Errorf("inner saw %d accesses after cancellation", inner.Total())
	}
}

func TestWithLatencyDeadline(t *testing.T) {
	slow := Chain(testAccess(t), WithLatency(10*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := slow.Sample(ctx, rng.New(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Sample error = %v, want context.DeadlineExceeded", err)
	}
}

func TestWithFaultsDeterministic(t *testing.T) {
	ctx := context.Background()
	injected := errors.New("backend down")
	faulty := Chain(testAccess(t), WithFaults(3, injected))
	var failures []int
	for i := 0; i < 9; i++ {
		if _, err := faulty.QueryItem(ctx, i%3); err != nil {
			if !errors.Is(err, injected) {
				t.Fatalf("access %d error = %v, want injected fault", i, err)
			}
			failures = append(failures, i)
		}
	}
	if len(failures) != 3 || failures[0] != 2 || failures[1] != 5 || failures[2] != 8 {
		t.Errorf("failures at %v, want every 3rd access", failures)
	}
}

// TestFrameAccountingMatchesPerDraw drives one middleware chain —
// counter, budget, faults, Instrument, slice oracle — once with a
// 4,096-draw frame and once with 4,096 one-draw frames that stop at
// the first error, as core's per-draw loop did. Every layer must
// charge the frame exactly as it charges the draws: same draws, same
// source position, same Spent, counter totals and per-query record, and
// the same error, for budgets ending before, inside, at and past the
// frame and with a fault inside it. The charges must also be the
// per-draw ones: every attempted draw, the refused or failed one
// included. A second chain puts Instrument outermost, where it sees
// the failed draws too.
func TestFrameAccountingMatchesPerDraw(t *testing.T) {
	const frame = 4096
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: 5000, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	base, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	injected := errors.New("backend down")

	// drive runs one fresh chain and returns its draws and everything
	// it charged.
	type charged struct {
		tail            uint64
		spent           int64
		counted, record int64
		budgetErr       bool
		faultErr        bool
	}
	drive := func(budget, every int64, instrumentOutermost, oneByOne bool) ([]oracle.Draw, charged) {
		counter := &Counter{}
		b := NewBudget(budget)
		mws := []Middleware{WithCounter(counter), WithBudget(b), WithFaults(every, injected), Instrument()}
		if instrumentOutermost {
			mws = append(mws[3:], mws[:3]...)
		}
		chain := Chain(base, mws...)
		ctx, rec := withRecord(context.Background())
		src := rng.New(uint64(budget)*31 + uint64(every))
		dst := make([]oracle.Draw, frame)
		var n int
		var err error
		if oneByOne {
			for ; n < frame; n++ {
				if _, err = chain.SampleFrame(ctx, src, dst[n:n+1]); err != nil {
					break
				}
			}
		} else {
			n, err = chain.SampleFrame(ctx, src, dst)
		}
		return dst[:n], charged{
			tail:      src.Uint64(),
			spent:     b.Spent(),
			counted:   counter.Samples(),
			record:    rec.samples.Load(),
			budgetErr: errors.Is(err, oracle.ErrBudgetExhausted),
			faultErr:  errors.Is(err, injected),
		}
	}
	for _, outer := range []bool{false, true} {
		for _, budget := range []int64{0, 1, frame - 1, frame, frame + 1} {
			for _, every := range []int64{0, 7} {
				name := fmt.Sprintf("instrument outermost=%v B=%d k=%d", outer, budget, every)
				framedDraws, framed := drive(budget, every, outer, false)
				perDrawDraws, perDraw := drive(budget, every, outer, true)
				if len(framedDraws) != len(perDrawDraws) {
					t.Fatalf("%s: frame filled %d draws, per-draw %d", name, len(framedDraws), len(perDrawDraws))
				}
				for i := range framedDraws {
					if framedDraws[i] != perDrawDraws[i] {
						t.Fatalf("%s: draw %d = %+v, per-draw %+v", name, i, framedDraws[i], perDrawDraws[i])
					}
				}
				if framed != perDraw {
					t.Errorf("%s: frame charged %+v, per-draw %+v", name, framed, perDraw)
				}

				// The charges per-draw access makes: the draws before
				// the first refused (budget) or failed (fault) one run,
				// and every layer that sees that one charges it too.
				beforeFault := int64(frame)
				if every > 0 {
					beforeFault = every - 1
				}
				filled := min(budget, beforeFault, frame)
				attempts := min(filled+1, frame)
				record := filled
				if outer {
					record = attempts
				}
				want := charged{tail: framed.tail, spent: attempts, counted: attempts, record: record,
					budgetErr: filled < frame && budget <= beforeFault, faultErr: filled < frame && budget > beforeFault}
				if int64(len(framedDraws)) != filled || framed != want {
					t.Errorf("%s: filled %d and charged %+v, want %d and %+v", name, len(framedDraws), framed, filled, want)
				}
			}
		}
	}
}

func TestChainOrderOutermostFirst(t *testing.T) {
	var order []string
	tag := func(name string) Middleware {
		return func(next oracle.Access) oracle.Access {
			return &access{
				inner: next,
				queryItem: func(ctx context.Context, i int) (knapsack.Item, error) {
					order = append(order, name)
					return next.QueryItem(ctx, i)
				},
			}
		}
	}
	chained := Chain(testAccess(t), tag("a"), tag("b"))
	if _, err := chained.QueryItem(context.Background(), 0); err != nil {
		t.Fatalf("QueryItem: %v", err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("interception order %v, want [a b]", order)
	}
}

func TestEnginePerQueryMetrics(t *testing.T) {
	lca, err := core.NewLCAKP(Wrap(testAccess(t)), core.Params{Epsilon: 0.2, Seed: 7})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	eng := New(lca)
	ctx := context.Background()

	in1, m1, err := eng.Query(ctx, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if m1.Outcome != OutcomeOK {
		t.Errorf("outcome = %q, want ok", m1.Outcome)
	}
	if m1.Samples == 0 {
		t.Errorf("metrics recorded no samples for a full pipeline run")
	}
	if m1.Accesses() != m1.PointQueries+m1.Samples {
		t.Errorf("Accesses = %d, want %d", m1.Accesses(), m1.PointQueries+m1.Samples)
	}

	// A second query is an independent run with its own record.
	in2, m2, err := eng.Query(ctx, 0)
	if err != nil {
		t.Fatalf("Query 2: %v", err)
	}
	if in1 != in2 {
		t.Errorf("answers differ across runs with one seed: %v vs %v", in1, in2)
	}
	if m2.Samples == 0 {
		t.Errorf("second query's record empty: deltas leaked across queries")
	}

	totals := eng.Totals()
	if totals.Queries != 2 || totals.OK != 2 {
		t.Errorf("totals = %+v, want 2 queries, 2 ok", totals)
	}
	if totals.Samples != m1.Samples+m2.Samples {
		t.Errorf("totals.Samples = %d, want %d", totals.Samples, m1.Samples+m2.Samples)
	}
}

func TestEngineQueryBatch(t *testing.T) {
	lca, err := core.NewLCAKP(Wrap(testAccess(t)), core.Params{Epsilon: 0.2, Seed: 7})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	eng := New(lca)
	answers, m, err := eng.QueryBatch(context.Background(), []int{0, 1, 2})
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if len(answers) != 3 {
		t.Fatalf("got %d answers", len(answers))
	}
	if m.Outcome != OutcomeOK || m.Samples == 0 {
		t.Errorf("batch metrics = %+v", m)
	}
	if got := eng.Totals(); got.Queries != 1 {
		t.Errorf("batch counted as %d engine queries, want 1", got.Queries)
	}
}

func TestEngineOutcomeClassification(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{nil, OutcomeOK},
		{context.Canceled, OutcomeCanceled},
		{fmt.Errorf("core: aborted: %w", context.Canceled), OutcomeCanceled},
		{context.DeadlineExceeded, OutcomeDeadline},
		{fmt.Errorf("x: %w", oracle.ErrBudgetExhausted), OutcomeBudget},
		{errors.New("boom"), OutcomeError},
	}
	for _, tc := range cases {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestEngineOutcomeTotals checks that failed queries land in the right
// outcome buckets of the cumulative totals.
func TestEngineOutcomeTotals(t *testing.T) {
	lca, err := core.NewLCAKP(Wrap(NewBudgeted(testAccess(t), 2)), core.Params{Epsilon: 0.2, Seed: 7})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	eng := New(lca)
	if _, _, err := eng.Query(context.Background(), 0); !errors.Is(err, oracle.ErrBudgetExhausted) {
		t.Fatalf("Query error = %v, want budget exhaustion", err)
	}
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.Query(canceledCtx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query error = %v, want context.Canceled", err)
	}
	totals := eng.Totals()
	if totals.Budget != 1 || totals.Canceled != 1 || totals.OK != 0 {
		t.Errorf("totals = %+v, want budget=1 canceled=1 ok=0", totals)
	}
}
