package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- span events and the probe ledger ---

func TestSpanEventsRecordProbesAndLevels(t *testing.T) {
	tr := NewTracer(8)
	ctx, span := tr.StartSpan(context.Background(), "q")
	span.AddProbes(2)
	span.Event("first", String("k", "v"))
	AddProbes(ctx, 3)
	AddWarnEvent(ctx, "second", Int("n", 7))
	span.End()

	spans := tr.Recorder().Spans()
	if len(spans) != 1 {
		t.Fatalf("want 1 recorded span, got %d", len(spans))
	}
	s := spans[0]
	if s.Probes != 5 {
		t.Errorf("span probes = %d, want 5", s.Probes)
	}
	if len(s.Events) != 2 {
		t.Fatalf("want 2 events, got %d", len(s.Events))
	}
	if s.Events[0].Name != "first" || s.Events[0].Level != LevelInfo || s.Events[0].Probes != 2 {
		t.Errorf("first event = %+v, want name=first level=info probes=2", s.Events[0])
	}
	if s.Events[1].Name != "second" || s.Events[1].Level != LevelWarn || s.Events[1].Probes != 5 {
		t.Errorf("second event = %+v, want name=second level=warn probes=5", s.Events[1])
	}
	if got := s.Events[1].Attrs; len(got) != 1 || got[0].Key != "n" || got[0].Value != "7" {
		t.Errorf("second event attrs = %+v, want [n=7]", got)
	}
}

func TestSpanEventsBoundedWithDropCount(t *testing.T) {
	tr := NewTracer(4)
	_, span := tr.StartSpan(context.Background(), "noisy")
	for i := 0; i < MaxSpanEvents+5; i++ {
		span.Event("e")
	}
	span.End()
	s := tr.Recorder().Spans()[0]
	if len(s.Events) != MaxSpanEvents {
		t.Errorf("events retained = %d, want %d", len(s.Events), MaxSpanEvents)
	}
	if s.EventsDropped != 5 {
		t.Errorf("EventsDropped = %d, want 5", s.EventsDropped)
	}
}

func TestSpanEventAfterEndIsDropped(t *testing.T) {
	tr := NewTracer(4)
	_, span := tr.StartSpan(context.Background(), "late")
	span.Event("before")
	span.End()
	span.Event("after") // must not grow the recorded copy
	s := tr.Recorder().Spans()[0]
	if len(s.Events) != 1 || s.Events[0].Name != "before" {
		t.Errorf("recorded events = %+v, want only [before]", s.Events)
	}
}

func TestEventHelpersNoopWhenUntraced(t *testing.T) {
	// Must not panic and must not allocate a trace out of thin air.
	ctx := context.Background()
	AddEvent(ctx, "nothing")
	AddWarnEvent(ctx, "nothing")
	AddProbes(ctx, 1)
	var nilSpan *Span
	nilSpan.Event("nothing")
	nilSpan.AddProbes(1)
	nilSpan.End()
	if id := TraceIDFromContext(ctx); id != 0 {
		t.Errorf("TraceIDFromContext(untraced) = %v, want 0", id)
	}
}

// --- tail-based slow-trace capture ---

// endWithDuration fabricates a finished span offered to a slow log.
func endWithDuration(ctx context.Context, tr *Tracer, name string, d time.Duration, warn bool) (TraceID, context.Context) {
	sctx, span := tr.StartSpan(ctx, name)
	if warn {
		span.WarnEvent("trouble")
	}
	// Backdate the start so End computes the duration we want without
	// sleeping.
	span.Start = span.Start.Add(-d)
	id := span.Trace
	span.End()
	return id, sctx
}

// capturedTrace returns the retained capture for one trace, if any.
func capturedTrace(slow *SlowTraceLog, id TraceID) (SlowTrace, bool) {
	for _, st := range slow.Captured() {
		if st.Trace == id {
			return st, true
		}
	}
	return SlowTrace{}, false
}

func TestSlowLogCapturesThresholdCrossers(t *testing.T) {
	tr := NewTracer(16)
	slow := NewSlowTraceLog(8, 50*time.Millisecond)
	tr.SetSlowLog(slow)

	fastID, _ := endWithDuration(context.Background(), tr, "fast", time.Millisecond, false)
	slowID, _ := endWithDuration(context.Background(), tr, "slow", 80*time.Millisecond, false)

	if _, ok := capturedTrace(slow, fastID); ok {
		t.Errorf("fast trace %v must not be captured", fastID)
	}
	st, ok := capturedTrace(slow, slowID)
	if !ok {
		t.Fatalf("slow trace %v not captured", slowID)
	}
	if st.Reason != "threshold" {
		t.Errorf("capture reason = %q, want threshold", st.Reason)
	}
	if st.Duration < 50*time.Millisecond {
		t.Errorf("captured duration = %v, want >= threshold", st.Duration)
	}
}

func TestSlowLogCapturesWarnEventTraces(t *testing.T) {
	tr := NewTracer(16)
	slow := NewSlowTraceLog(8, 0) // no latency trigger: events only
	tr.SetSlowLog(slow)

	warnID, _ := endWithDuration(context.Background(), tr, "warned", time.Millisecond, true)
	quietID, _ := endWithDuration(context.Background(), tr, "quiet", time.Millisecond, false)

	st, ok := capturedTrace(slow, warnID)
	if !ok {
		t.Fatalf("warn-event trace %v not captured", warnID)
	}
	if st.Reason != "event:trouble" {
		t.Errorf("capture reason = %q, want event:trouble", st.Reason)
	}
	if _, ok := capturedTrace(slow, quietID); ok {
		t.Errorf("quiet trace %v must not be captured", quietID)
	}
}

func TestSlowLogRetainsWholeSpanTree(t *testing.T) {
	tr := NewTracer(16)
	slow := NewSlowTraceLog(8, 0)
	tr.SetSlowLog(slow)

	// Root with two children; only one child warns, but the whole local
	// tree must be retained, children ending before the root.
	rootCtx, root := tr.StartSpan(context.Background(), "gateway.query")
	_, c1 := tr.StartSpan(rootCtx, "rpc.1")
	c1.End()
	_, c2 := tr.StartSpan(rootCtx, "rpc.2")
	c2.WarnEvent("gateway.failover", String("to", "b"))
	c2.End()
	root.AddProbes(2)
	root.End()

	st, ok := capturedTrace(slow, root.Trace)
	if !ok {
		t.Fatalf("trace %v not captured", root.Trace)
	}
	if len(st.Spans) != 3 {
		t.Fatalf("captured %d spans, want the whole tree of 3: %+v", len(st.Spans), st.Spans)
	}
	if st.Probes != 2 {
		t.Errorf("captured probes = %d, want 2", st.Probes)
	}
	names := map[string]bool{}
	for _, s := range st.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"gateway.query", "rpc.1", "rpc.2"} {
		if !names[want] {
			t.Errorf("captured tree missing span %q", want)
		}
	}
}

func TestSlowLogRingBoundAndNewestFirst(t *testing.T) {
	tr := NewTracer(64)
	slow := NewSlowTraceLog(2, 0)
	tr.SetSlowLog(slow)
	var ids []TraceID
	for i := 0; i < 5; i++ {
		id, _ := endWithDuration(context.Background(), tr, fmt.Sprintf("w%d", i), time.Millisecond, true)
		ids = append(ids, id)
	}
	got := slow.Captured()
	if len(got) != 2 {
		t.Fatalf("retained %d traces, want ring bound 2", len(got))
	}
	if got[0].Trace != ids[4] || got[1].Trace != ids[3] {
		t.Errorf("retained traces %v,%v; want newest-first %v,%v", got[0].Trace, got[1].Trace, ids[4], ids[3])
	}
}

func TestSlowLogWriteJSONRoundTrips(t *testing.T) {
	tr := NewTracer(16)
	slow := NewSlowTraceLog(8, 0)
	tr.SetSlowLog(slow)
	id, _ := endWithDuration(context.Background(), tr, "warned", time.Millisecond, true)

	var buf bytes.Buffer
	if err := slow.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"` + id.String() + `"`, // hex-quoted trace ID
		`"reason": "event:trouble"`,
		`"captured_total": 1`,
		`"name": "trouble"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteJSON output missing %q:\n%s", want, out)
		}
	}
}

// TestSlowLogMergedTraceStaysBounded reuses one trace context across
// many warn-carrying queries: each query finalizes separately and
// merges into the same ring entry, whose span list must stay capped at
// spansPerTraceLimit with the overflow counted — a chatty client must
// not defeat the log's bounded-memory design.
func TestSlowLogMergedTraceStaysBounded(t *testing.T) {
	tr := NewTracer(16)
	slow := NewSlowTraceLog(8, 0)
	tr.SetSlowLog(slow)

	const extra = 10
	id, ctx := endWithDuration(context.Background(), tr, "q0", time.Millisecond, true)
	for i := 1; i < spansPerTraceLimit+extra; i++ {
		endWithDuration(ctx, tr, fmt.Sprintf("q%d", i), time.Millisecond, true)
	}
	st, ok := capturedTrace(slow, id)
	if !ok {
		t.Fatalf("trace %v not captured", id)
	}
	if len(st.Spans) != spansPerTraceLimit {
		t.Errorf("merged entry holds %d spans, want cap %d", len(st.Spans), spansPerTraceLimit)
	}
	if st.SpansDropped != extra {
		t.Errorf("SpansDropped = %d, want %d", st.SpansDropped, extra)
	}
}

// --- histogram exemplars ---

func TestObserveExemplarLinksTraceToBucket(t *testing.T) {
	h := &Histogram{}
	h.ObserveExemplar(3*time.Millisecond, TraceID(0xabc), "t1")
	ex, ok := h.ExemplarNear(0.99)
	if !ok {
		t.Fatal("no exemplar near p99 after a traced observation")
	}
	if ex.Trace != TraceID(0xabc) || ex.Tenant != "t1" || ex.Value != 3*time.Millisecond {
		t.Errorf("exemplar = %+v, want trace=abc tenant=t1 value=3ms", ex)
	}
	// Untraced observations leave no exemplar.
	h2 := &Histogram{}
	h2.ObserveExemplar(time.Millisecond, 0, "t1")
	if _, ok := h2.ExemplarNear(0.5); ok {
		t.Error("untraced ObserveExemplar must not store an exemplar")
	}
}

func TestExemplarInExposition(t *testing.T) {
	reg := NewRegistry()
	h := &Histogram{}
	if err := reg.Register("lcakp_forensics_latency_seconds", "latency", h); err != nil {
		t.Fatalf("Register: %v", err)
	}
	h.ObserveExemplar(2*time.Millisecond, TraceID(0xdeadbeef), "3:5")

	// The scrapeable exposition must stay strictly plain 0.0.4: no
	// exposition format permits exemplars on summary quantiles, and a
	// single annotation would fail a whole Prometheus scrape.
	var plain bytes.Buffer
	if err := reg.WritePrometheus(&plain); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if strings.Contains(plain.String(), " # {") {
		t.Errorf("WritePrometheus output carries an exemplar annotation — /metrics would be unscrapable:\n%s", plain.String())
	}

	// The extended exposition (served on /debug/exemplars, consumed by
	// the push path) carries the annotation and round-trips the parser.
	var buf bytes.Buffer
	if err := reg.WriteExemplarExposition(&buf); err != nil {
		t.Fatalf("WriteExemplarExposition: %v", err)
	}
	out := buf.String()
	want := `# {trace_id="00000000deadbeef",tenant="3:5"} 0.002`
	if !strings.Contains(out, want) {
		t.Errorf("extended exposition missing exemplar annotation %q:\n%s", want, out)
	}
	if _, err := ParseExposition(strings.NewReader(out)); err != nil {
		t.Errorf("exposition with exemplars failed to parse: %v", err)
	}
}

// TestHistogramExemplarSwapRace hammers ObserveExemplar from many
// goroutines (run under -race in CI): the atomic pointer swap must
// never tear, and every stored exemplar must be internally consistent —
// a real (trace, value) pair some goroutine wrote, filed in the bucket
// its value belongs to.
func TestHistogramExemplarSwapRace(t *testing.T) {
	const workers = 8
	const perWorker = 5_000
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := time.Duration((i*977+w)%1_000_000 + 1)
				// Trace encodes the value so readers can check pairing.
				h.ObserveExemplar(d, TraceID(uint64(d)), "t")
			}
		}(w)
	}
	// Concurrent readers exercise the load side of the swap.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				h.ExemplarNear(0.99)
			}
		}
	}()
	wg.Wait()
	close(done)

	found := 0
	for i := range h.exemplars {
		ex := h.exemplars[i].Load()
		if ex == nil {
			continue
		}
		found++
		if uint64(ex.Trace) != uint64(ex.Value) {
			t.Fatalf("torn exemplar: trace %d does not match value %d", ex.Trace, ex.Value)
		}
		if bucketIndex(int64(ex.Value)) != i {
			t.Fatalf("exemplar with value %d filed in bucket %d, want %d", ex.Value, i, bucketIndex(int64(ex.Value)))
		}
	}
	if found == 0 {
		t.Fatal("no exemplars stored at all")
	}
}

// --- label cardinality under concurrent churn ---

// TestVecCardinalityChurnConcurrent churns far more tenants than the
// limit through a counter vec from many goroutines — attaching, and
// re-attaching, each tenant's read-through child — while a reader
// continuously snapshots the exposition (run under -race in CI). The
// bound must hold at every instant: an attach beyond it fails.
func TestVecCardinalityChurnConcurrent(t *testing.T) {
	const limit = 8
	const workers = 6
	const perWorker = 2_000
	cv := NewCounterVec("tenant", limit)
	reg := NewRegistry()
	if err := reg.Register("lcakp_churn_total", "churning counter vec", cv); err != nil {
		t.Fatalf("Register: %v", err)
	}

	var wg sync.WaitGroup
	var stop atomic.Bool
	var refused atomic.Int64
	readerDone := make(chan struct{})
	// Reader: exposition must stay well-formed mid-churn.
	go func() {
		defer close(readerDone)
		for !stop.Load() {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus during churn: %v", err)
				return
			}
			if _, err := ParseExposition(&buf); err != nil {
				t.Errorf("exposition invalid during churn: %v", err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tenant := fmt.Sprintf("tenant-%d", (i*7+w)%64)
				if err := cv.AttachFunc(tenant, func() int64 { return int64(i) }); err != nil {
					refused.Add(1)
				}
				if n := cv.Len(); n > limit {
					t.Errorf("CounterVec Len = %d, above limit %d", n, limit)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	<-readerDone

	if refused.Load() == 0 {
		t.Error("no attach was refused while churning 64 tenants through a limit of 8")
	}
	if cv.Len() > limit {
		t.Errorf("final Len = %d above limit %d", cv.Len(), limit)
	}
}

// --- /metrics golden: valid text format, byte-stable with no traffic ---

func TestMetricsExpositionValidAndByteStable(t *testing.T) {
	reg := NewRegistry()
	queries, h := &Counter{}, &Histogram{}
	queries.Add(42)
	h.ObserveExemplar(5*time.Millisecond, TraceID(0x42), "3:5")
	h.Observe(time.Millisecond)
	cv := NewCounterVec("tenant", 4)
	if err := cv.AttachFunc("3:5", func() int64 { return 7 }); err != nil {
		t.Fatalf("AttachFunc: %v", err)
	}
	// Escaping must round-trip the parser.
	if err := cv.AttachFunc(`we"ird\`, func() int64 { return 1 }); err != nil {
		t.Fatalf("AttachFunc: %v", err)
	}
	for _, m := range []struct {
		name, help string
		metric     Metric
	}{
		{"lcakp_golden_queries_total", "queries served", queries},
		{"lcakp_golden_residency", "resident tenants", GaugeFunc(func() float64 { return 3 })},
		{"lcakp_golden_latency_seconds", "query latency", h},
		{"lcakp_golden_tenant_queries_total", "per-tenant queries", cv},
	} {
		if err := reg.Register(m.name, m.help, m.metric); err != nil {
			t.Fatalf("Register %s: %v", m.name, err)
		}
	}

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	scrape := func() string {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read /metrics: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: %s", resp.Status)
		}
		return string(body)
	}

	first := scrape()
	families, err := ParseExposition(strings.NewReader(first))
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v\n%s", err, first)
	}
	if len(families) == 0 {
		t.Fatal("no metric families parsed")
	}
	// Valid for a real scraper means plain 0.0.4: the classic text
	// parser allows only a timestamp after a sample value, so any
	// exemplar annotation would fail the whole scrape.
	if strings.Contains(first, " # {") {
		t.Errorf("/metrics carries an exemplar annotation — not valid Prometheus text:\n%s", first)
	}
	byName := map[string]Family{}
	for _, f := range families {
		byName[f.Name] = f
	}
	if f, ok := byName["lcakp_golden_queries_total"]; !ok || f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Errorf("counter family wrong: %+v", f)
	}
	if f, ok := byName["lcakp_golden_latency_seconds"]; !ok || f.Type != "summary" {
		t.Errorf("summary family wrong: %+v", f)
	}

	// The trace link lives on the extended exposition instead.
	var annotated bytes.Buffer
	if err := reg.WriteExemplarExposition(&annotated); err != nil {
		t.Fatalf("WriteExemplarExposition: %v", err)
	}
	exFamilies, err := ParseExposition(bytes.NewReader(annotated.Bytes()))
	if err != nil {
		t.Fatalf("exemplar exposition does not parse: %v\n%s", err, annotated.String())
	}
	sawExemplar := false
	for _, f := range exFamilies {
		if f.Name != "lcakp_golden_latency_seconds" {
			continue
		}
		for _, s := range f.Samples {
			if s.Exemplar != nil && s.Exemplar.Label("trace_id") == TraceID(0x42).String() {
				sawExemplar = true
			}
		}
	}
	if !sawExemplar {
		t.Errorf("exemplar exposition carries no trace_id exemplar for the traced observation:\n%s", annotated.String())
	}

	// No traffic between scrapes: the exposition must be byte-identical.
	second := scrape()
	if first != second {
		t.Errorf("/metrics not byte-stable across idle scrapes:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// --- /debug/traces filtering ---

func TestDebugTracesFilterAndLimit(t *testing.T) {
	tr := NewTracer(16)
	var want TraceID
	for i := 0; i < 3; i++ {
		_, span := tr.StartSpan(context.Background(), fmt.Sprintf("q%d", i))
		span.Event("mark", Int("i", int64(i)))
		want = span.Trace
		span.End()
	}
	dbg, err := NewDebugServer("127.0.0.1:0", nil, tr.Recorder(), nil)
	if err != nil {
		t.Fatalf("NewDebugServer: %v", err)
	}
	defer dbg.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + dbg.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/traces?trace=" + want.String())
	if code != http.StatusOK {
		t.Fatalf("?trace= returned %d: %s", code, body)
	}
	if !strings.Contains(body, "name=q2") || strings.Contains(body, "name=q0") {
		t.Errorf("?trace= must show only the requested trace:\n%s", body)
	}
	if !strings.Contains(body, "event=mark") {
		t.Errorf("?trace= output missing span events:\n%s", body)
	}

	code, body = get("/debug/traces?limit=2")
	if code != http.StatusOK {
		t.Fatalf("?limit= returned %d: %s", code, body)
	}
	if got := strings.Count(body, "trace="); got != 2 {
		t.Errorf("?limit=2 shows %d span lines, want 2:\n%s", got, body)
	}

	if code, _ := get("/debug/traces?trace=zzzz"); code != http.StatusBadRequest {
		t.Errorf("bad trace id returned %d, want 400", code)
	}
}
