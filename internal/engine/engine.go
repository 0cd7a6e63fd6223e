package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"lcakp/internal/knapsack"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// Outcome classifies how a query ended.
type Outcome string

// Query outcomes.
const (
	// OutcomeOK marks a query answered successfully.
	OutcomeOK Outcome = "ok"
	// OutcomeCanceled marks a query aborted by context cancellation.
	OutcomeCanceled Outcome = "canceled"
	// OutcomeDeadline marks a query aborted by a context deadline.
	OutcomeDeadline Outcome = "deadline"
	// OutcomeError marks any other failure.
	OutcomeError Outcome = "error"
)

// classify maps a query error to its Outcome.
func classify(err error) Outcome {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, context.DeadlineExceeded):
		return OutcomeDeadline
	case errors.Is(err, context.Canceled):
		return OutcomeCanceled
	default:
		return OutcomeError
	}
}

// Metrics is the per-query record the engine emits: what one
// membership query cost and how it ended. This is the LCA literature's
// per-query accounting (time, query count) as a first-class value.
type Metrics struct {
	// PointQueries is the number of oracle point queries the query
	// made.
	PointQueries int64
	// Samples is the number of weighted samples drawn on the query's
	// behalf: a core.LCAKP query that joined another query's run is
	// charged none, and the run's leader is charged them all.
	Samples int64
	// Wall is the query's wall-clock duration.
	Wall time.Duration
	// Outcome classifies how the query ended.
	Outcome Outcome
}

// record is the mutable per-query tally threaded through the context.
type record struct {
	pointQueries atomic.Int64
	samples      atomic.Int64
}

// recordKey locates the active record in a context.
type recordKey struct{}

// withRecord installs a fresh per-query record into ctx.
func withRecord(ctx context.Context) (context.Context, *record) {
	rec := &record{} //lint:alloc one accounting record per query by design; the metrics snapshot is the ROADMAP's priced instrumentation
	return context.WithValue(ctx, recordKey{}, rec), rec
}

// Instrument is the metrics-snapshot middleware: it tallies accesses
// into the per-query record the Engine threads through the context.
// Accesses made outside an Engine query (no record in ctx) pass
// through unrecorded. Install it in the chain of any access handed to
// an LCA that an Engine will drive; Wrap does so automatically.
func Instrument() Middleware {
	return func(next oracle.Access) oracle.Access {
		return &access{
			inner: next,
			queryItem: func(ctx context.Context, i int) (knapsack.Item, error) {
				if rec, ok := ctx.Value(recordKey{}).(*record); ok {
					rec.pointQueries.Add(1)
				}
				// Charge the probe to the active span's Def 2.2 cost
				// ledger; no-op when the query is untraced.
				obs.AddProbes(ctx, 1)
				return next.QueryItem(ctx, i)
			},
			sampleFrame: func(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
				n, err := next.SampleFrame(ctx, src, dst)
				charged := attempted(n, err)
				if rec, ok := ctx.Value(recordKey{}).(*record); ok {
					rec.samples.Add(charged)
				}
				obs.AddProbes(ctx, charged)
				return n, err
			},
		}
	}
}

// Wrap prepares an access for engine serving: the given middlewares
// (outermost first) over the Instrument middleware over base, so
// per-query Metrics see exactly the accesses that reach base.
func Wrap(base oracle.Access, mws ...Middleware) oracle.Access {
	return Chain(Chain(base, Instrument()), mws...)
}

// Querier answers membership queries under a context. core.LCAKP is
// the canonical implementation.
type Querier interface {
	// Query reports whether item i belongs to the answered solution.
	Query(ctx context.Context, i int) (bool, error)
	// QueryBatch answers several indices from one run.
	QueryBatch(ctx context.Context, indices []int) ([]bool, error)
}

// Totals is a snapshot of an Engine's cumulative per-query metrics.
type Totals struct {
	// Queries counts engine-level queries (a batch counts once).
	Queries int64
	// PointQueries and Samples are summed over all queries.
	PointQueries int64
	Samples      int64
	// Wall is total wall-clock time spent inside queries.
	Wall time.Duration
	// OK, Canceled, Deadline and Errors split Queries by outcome.
	OK, Canceled, Deadline, Errors int64
}

// Engine drives a Querier and accounts every query with a Metrics
// record. It is safe for concurrent use if the Querier is (core.LCAKP
// is).
//
// The cumulative tallies are obs metrics so they can be handed to a
// Registry (RegisterMetrics) for scraping without a second accounting
// path; Totals reads the same counters, so the two views can never
// disagree.
type Engine struct {
	q Querier

	queries      obs.Counter
	pointQueries obs.Counter
	samples      obs.Counter
	wallNanos    obs.Counter
	ok           obs.Counter
	canceled     obs.Counter
	deadline     obs.Counter
	errorsN      obs.Counter
	latency      obs.Histogram

	// tracer, when set, opens one span per engine query that joins any
	// trace already present in the incoming context (the wire frame's
	// trace header, installed by the cluster server).
	tracer atomic.Pointer[obs.Tracer]
}

// New builds an Engine over q. For access counts to appear in the
// Metrics records, the oracle access behind q must carry the
// Instrument middleware (see Wrap).
func New(q Querier) *Engine { return &Engine{q: q} }

// SetTracer attaches a tracer: every subsequent query opens a span
// ("engine.query" / "engine.querybatch") joining any trace carried by
// the incoming context. nil detaches.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tracer.Store(tr) }

// startSpan opens a per-query span when a tracer is attached.
func (e *Engine) startSpan(ctx context.Context, name string) (context.Context, *obs.Span) {
	if tr := e.tracer.Load(); tr != nil {
		return tr.StartSpan(ctx, name)
	}
	return ctx, nil
}

// Query answers one membership query and returns its Metrics record.
func (e *Engine) Query(ctx context.Context, i int) (bool, Metrics, error) {
	ctx, span := e.startSpan(ctx, "engine.query")
	ctx, rec := withRecord(ctx)
	start := time.Now()
	answer, err := e.q.Query(ctx, i)
	m := e.finish(rec, start, err, span)
	if span != nil {
		span.End()
	}
	return answer, m, err
}

// QueryBatch answers several membership queries from one run and
// returns the batch's Metrics record (the whole batch counts as one
// engine query; its access cost is amortized by construction).
func (e *Engine) QueryBatch(ctx context.Context, indices []int) ([]bool, Metrics, error) {
	ctx, span := e.startSpan(ctx, "engine.querybatch")
	ctx, rec := withRecord(ctx)
	start := time.Now()
	answers, err := e.q.QueryBatch(ctx, indices)
	m := e.finish(rec, start, err, span)
	if span != nil {
		span.End()
	}
	return answers, m, err
}

// finish folds one finished query into the totals and builds its
// Metrics record. Traced queries leave their trace ID as the latency
// histogram's bucket exemplar, so a replica-side tail bucket names a
// replayable trace.
func (e *Engine) finish(rec *record, start time.Time, err error, span *obs.Span) Metrics {
	m := Metrics{
		PointQueries: rec.pointQueries.Load(),
		Samples:      rec.samples.Load(),
		Wall:         time.Since(start),
		Outcome:      classify(err),
	}
	e.queries.Inc()
	e.pointQueries.Add(m.PointQueries)
	e.samples.Add(m.Samples)
	e.wallNanos.Add(int64(m.Wall))
	if span != nil {
		e.latency.ObserveExemplar(m.Wall, span.Trace, "")
	} else {
		e.latency.Observe(m.Wall)
	}
	switch m.Outcome {
	case OutcomeOK:
		e.ok.Inc()
	case OutcomeCanceled:
		e.canceled.Inc()
	case OutcomeDeadline:
		e.deadline.Inc()
	default:
		e.errorsN.Inc()
	}
	return m
}

// Totals returns the cumulative metrics snapshot.
func (e *Engine) Totals() Totals {
	return Totals{
		Queries:      e.queries.Value(),
		PointQueries: e.pointQueries.Value(),
		Samples:      e.samples.Value(),
		Wall:         time.Duration(e.wallNanos.Value()),
		OK:           e.ok.Value(),
		Canceled:     e.canceled.Value(),
		Deadline:     e.deadline.Value(),
		Errors:       e.errorsN.Value(),
	}
}

// RegisterMetrics exposes the engine's cumulative tallies on reg under
// the given name prefix (e.g. "lcakp_engine" yields
// lcakp_engine_queries_total, ..., lcakp_engine_query_latency_seconds).
// The registered metrics are the engine's own live counters — no
// copying, no second write path.
func (e *Engine) RegisterMetrics(reg *obs.Registry, prefix string) error {
	for _, m := range []struct {
		suffix, help string
		metric       obs.Metric
	}{
		{"_queries_total", "membership queries served (a batch counts once)", &e.queries},
		{"_point_queries_total", "oracle point queries made", &e.pointQueries},
		{"_samples_total", "weighted oracle samples drawn", &e.samples},
		{"_queries_ok_total", "queries answered successfully", &e.ok},
		{"_queries_canceled_total", "queries aborted by cancellation", &e.canceled},
		{"_queries_deadline_total", "queries aborted by deadline", &e.deadline},
		{"_query_errors_total", "queries failed for any other reason", &e.errorsN},
		{"_query_latency_seconds", "query wall-clock latency", &e.latency},
	} {
		if err := reg.Register(prefix+m.suffix, m.help, m.metric); err != nil {
			return fmt.Errorf("engine: register metrics: %w", err)
		}
	}
	return nil
}
