package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// gatedAccess holds sample frames at a gate, counting the frames that
// arrive at it.
type gatedAccess struct {
	oracle.Access
	arrivals atomic.Int32
	mu       sync.Mutex
	gate     chan struct{} // closed when the frames at it may pass
}

func (g *gatedAccess) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	g.arrivals.Add(1)
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	<-gate
	return g.Access.SampleFrame(ctx, src, dst)
}

// release lets the frames held now pass. With hold, later frames wait
// at a new gate; without it, every later frame passes.
func (g *gatedAccess) release(hold bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	close(g.gate)
	if hold {
		g.gate = make(chan struct{})
	}
}

func (g *gatedAccess) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := oracle.SampleOne(ctx, g, src)
	return d.Index, d.Item, err
}

// waitingCtx counts the calls to its Done method. A query that joins
// a run calls it when it starts to wait for the run's rule, and
// nothing else on these tests' paths calls it.
type waitingCtx struct {
	context.Context
	waits *atomic.Int32
}

func (c waitingCtx) Done() <-chan struct{} {
	c.waits.Add(1)
	return c.Context.Done()
}

// sharedFixture is a traced engine over an LCA whose access is a
// counted slice oracle behind a gate, plus the bare oracle and the
// sample count of one full run. The instance has no large item, so
// every run draws the same number of samples. waits counts the joins
// of the queries made through waitingCtx{waits: &f.waits}.
type sharedFixture struct {
	eng    *engine.Engine
	lca    *LCAKP
	gate   *gatedAccess
	count  *engine.Counter
	rec    *obs.SpanRecorder
	slice  *oracle.SliceOracle
	oneRun int64
	waits  atomic.Int32
}

func newSharedFixture(t *testing.T) *sharedFixture {
	t.Helper()
	gen := mustGenerate(t, "uniform", 2000, 13)
	slice, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	f := &sharedFixture{slice: slice, count: &engine.Counter{}}
	f.gate = &gatedAccess{Access: engine.Chain(slice, engine.WithCounter(f.count)), gate: make(chan struct{})}
	params := Params{Epsilon: 0.2, Seed: 21}
	if f.lca, err = NewLCAKP(engine.Wrap(f.gate), params); err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	f.eng = engine.New(f.lca)
	tr := obs.NewTracer(64)
	f.eng.SetTracer(tr)
	f.rec = tr.Recorder()
	p := f.lca.Params()
	f.oneRun = int64(p.LargeSamples + p.QuantileSamples)
	return f
}

// rule computes, on a fresh LCA with the fixture's parameters over the
// bare oracle, the rule of the run with the given label and nonce, and
// checks that it drew one run's samples.
func (f *sharedFixture) rule(t *testing.T, label string, nonce int) Rule {
	t.Helper()
	c := &engine.Counter{}
	ref, err := NewLCAKP(engine.Chain(f.slice, engine.WithCounter(c)), f.lca.Params())
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	rule, err := ref.ComputeRule(context.Background(), ref.freshBase.DeriveIndex(label, nonce))
	if err != nil {
		t.Fatalf("ComputeRule(%s/%d): %v", label, nonce, err)
	}
	if c.Samples() != f.oneRun {
		t.Fatalf("run %s/%d drew %d samples, want %d", label, nonce, c.Samples(), f.oneRun)
	}
	return rule
}

// want is rule's answer for item i.
func (f *sharedFixture) want(t *testing.T, rule Rule, i int) bool {
	t.Helper()
	it, err := f.slice.QueryItem(context.Background(), i)
	if err != nil {
		t.Fatalf("QueryItem(%d): %v", i, err)
	}
	return rule.Decide(i, it)
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// joinerResult is one overlapping query's outcome.
type joinerResult struct {
	items   []int
	answers []bool
	m       engine.Metrics
	err     error
}

// runJoiners starts 7 queries that overlap the run held at the gate:
// even ones Query one item, odd ones QueryBatch two. It returns once
// all 7 wait for the run's rule, or 8 runs reach the gate (an LCA that
// shares nothing), and the results once the queries end.
func (f *sharedFixture) runJoiners(t *testing.T) func() []joinerResult {
	t.Helper()
	const joiners = 7
	results := make([]joinerResult, joiners)
	var wg sync.WaitGroup
	for g := range joiners {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := waitingCtx{Context: context.Background(), waits: &f.waits}
			r := &results[g]
			if g%2 == 0 {
				r.items = []int{g + 1}
				var in bool
				in, r.m, r.err = f.eng.Query(ctx, g+1)
				r.answers = []bool{in}
			} else {
				r.items = []int{g + 1, g + 1001}
				r.answers, r.m, r.err = f.eng.QueryBatch(ctx, r.items)
			}
		}(g)
	}
	if !waitFor(func() bool { return f.waits.Load() >= joiners || f.gate.arrivals.Load() >= joiners+1 }) {
		f.gate.release(false)
		t.Fatalf("overlapping queries neither joined the run nor reached the gate (%d waiting, %d frames held)",
			f.waits.Load(), f.gate.arrivals.Load())
	}
	return func() []joinerResult {
		wg.Wait()
		return results
	}
}

// TestSharedRunServesOverlappingQueries holds one Query's run at a gate
// in the access while seven Query and QueryBatch calls arrive: all of
// them must answer from that run's rule, the access must see exactly
// one run's samples, the leader must be charged them and each joiner
// only its point queries, and each joiner's span must name the run.
func TestSharedRunServesOverlappingQueries(t *testing.T) {
	f := newSharedFixture(t)
	rule := f.rule(t, "run", 1)
	ctx := context.Background()

	type result struct {
		in  bool
		m   engine.Metrics
		err error
	}
	leader := make(chan result, 1)
	go func() {
		in, m, err := f.eng.Query(ctx, 0)
		leader <- result{in, m, err}
	}()
	if !waitFor(func() bool { return f.gate.arrivals.Load() == 1 }) {
		t.Fatal("the leading query never reached the gate")
	}
	joined := f.runJoiners(t)
	f.gate.release(false)
	results := joined()
	lead := <-leader

	if lead.err != nil {
		t.Fatalf("leader: %v", lead.err)
	}
	if want := f.want(t, rule, 0); lead.in != want {
		t.Errorf("leader: item 0 = %v, want %v", lead.in, want)
	}
	points := int64(1)
	for g, r := range results {
		if r.err != nil {
			t.Fatalf("joiner %d: %v", g, r.err)
		}
		for k, i := range r.items {
			if want := f.want(t, rule, i); r.answers[k] != want {
				t.Errorf("joiner %d: item %d = %v, want %v (run 1's rule)", g, i, r.answers[k], want)
			}
		}
		if r.m.Samples != 0 || r.m.PointQueries != int64(len(r.items)) {
			t.Errorf("joiner %d charged %d samples and %d point queries, want 0 and %d",
				g, r.m.Samples, r.m.PointQueries, len(r.items))
		}
		points += int64(len(r.items))
	}
	if got := f.count.Samples(); got != f.oneRun {
		t.Errorf("access drew %d samples for 8 overlapping queries, want one run's %d", got, f.oneRun)
	}
	if got := f.count.Queries(); got != points {
		t.Errorf("access served %d point queries, want %d", got, points)
	}
	if lead.m.Samples != f.oneRun {
		t.Errorf("leader charged %d samples, want the run's %d", lead.m.Samples, f.oneRun)
	}

	var leaderTrace obs.TraceID
	joinedSpans := 0
	for _, s := range f.rec.Spans() {
		ev := sharedRunEvent(s)
		if ev == nil {
			leaderTrace = s.Trace
			continue
		}
		joinedSpans++
		if got := attr(ev, "run"); got != "1" {
			t.Errorf("span %s: joined run %q, want 1", s.ID, got)
		}
	}
	if joinedSpans != 7 {
		t.Fatalf("%d spans record a joined run, want 7", joinedSpans)
	}
	for _, s := range f.rec.Spans() {
		if ev := sharedRunEvent(s); ev != nil && attr(ev, "leader_trace") != leaderTrace.String() {
			t.Errorf("span %s: leader trace %q, want %s", s.ID, attr(ev, "leader_trace"), leaderTrace)
		}
	}
}

// TestSharedRunSurvivesLeaderCancel cancels the leading query while
// its run is held at the gate. The leader fails with its own
// cancellation; every joiner still answers, from a second run that one
// of them leads and the other six join while its first frame is held,
// so the access sees the first run's one aborted frame plus one full
// run.
func TestSharedRunSurvivesLeaderCancel(t *testing.T) {
	f := newSharedFixture(t)
	// The second run is led by a Query or a QueryBatch joiner; both
	// candidate rules agree here, so the answers do not depend on which.
	rule := f.rule(t, "run", 2)
	if alt := f.rule(t, "batch", 2); !alt.Equal(rule) {
		t.Fatal("runs run/2 and batch/2 computed different rules; pick another instance")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan error, 1)
	go func() {
		_, _, err := f.eng.Query(ctx, 0)
		leader <- err
	}()
	if !waitFor(func() bool { return f.gate.arrivals.Load() == 1 }) {
		t.Fatal("the leading query never reached the gate")
	}
	joined := f.runJoiners(t)
	cancel()
	f.gate.release(true)
	if !waitFor(func() bool { return f.gate.arrivals.Load() >= 2 && f.waits.Load() >= 7+6 }) {
		f.gate.release(false)
		t.Fatalf("no second run gathered the six other joiners after the leader's cancel (%d joins, %d frames held)",
			f.waits.Load(), f.gate.arrivals.Load())
	}
	f.gate.release(false)
	results := joined()

	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	for g, r := range results {
		if r.err != nil {
			t.Fatalf("joiner %d failed after the leader's cancel: %v", g, r.err)
		}
		for k, i := range r.items {
			if want := f.want(t, rule, i); r.answers[k] != want {
				t.Errorf("joiner %d: item %d = %v, want %v", g, i, r.answers[k], want)
			}
		}
	}
	// The canceled leader's held frame completes and the run stops
	// before its next one.
	aborted := int64(min(drawChunk, f.lca.Params().LargeSamples))
	if got := f.count.Samples(); got != aborted+f.oneRun {
		t.Errorf("access drew %d samples, want the aborted frame's %d plus one run's %d", got, aborted, f.oneRun)
	}
}

// TestSharedRunJoinerCancel ends a joiner's context while it waits: it
// returns its own cancellation at once, and the run goes on for its
// leader.
func TestSharedRunJoinerCancel(t *testing.T) {
	f := newSharedFixture(t)
	leader := make(chan error, 1)
	go func() {
		_, _, err := f.eng.Query(context.Background(), 0)
		leader <- err
	}()
	if !waitFor(func() bool { return f.gate.arrivals.Load() == 1 }) {
		t.Fatal("the leading query never reached the gate")
	}
	ctx, cancel := context.WithCancel(context.Background())
	joiner := make(chan error, 1)
	go func() {
		_, _, err := f.eng.Query(waitingCtx{Context: ctx, waits: &f.waits}, 1)
		joiner <- err
	}()
	if !waitFor(func() bool { return f.waits.Load() >= 1 }) {
		f.gate.release(false)
		t.Fatal("the second query never joined the run")
	}
	cancel()
	select {
	case err := <-joiner:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("joiner error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a canceled joiner kept waiting for the run")
	}
	f.gate.release(false)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if got := f.count.Samples(); got != f.oneRun {
		t.Errorf("access drew %d samples, want one run's %d", got, f.oneRun)
	}
}

// sharedRunEvent returns s's core.shared_run event, or nil.
func sharedRunEvent(s obs.Span) *obs.Event {
	for k := range s.Events {
		if s.Events[k].Name == "core.shared_run" {
			return &s.Events[k]
		}
	}
	return nil
}

// attr returns the value of ev's attribute key, or "".
func attr(ev *obs.Event, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
