package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// slowLog sizing bounds: pendingTraceLimit caps the number of traces
// buffered while still in flight, spansPerTraceLimit the spans buffered
// per trace. Both exist so a tracer that never completes traces (or a
// trace with a runaway span count) cannot grow the log without bound.
const (
	pendingTraceLimit   = 256
	spansPerTraceLimit  = 64
	defaultSlowCapacity = 64
)

// SlowTrace is one force-retained trace: the complete locally-observed
// span tree of a query that crossed the latency threshold or recorded
// a warn-level event.
type SlowTrace struct {
	Trace TraceID `json:"trace"`
	// CapturedAt stamps retention; Duration is the longest local span
	// (for a gateway, the whole query).
	CapturedAt time.Time     `json:"captured_at"`
	Duration   time.Duration `json:"duration_ns"`
	// Reason says what triggered capture: "threshold", or "event:<name>"
	// naming the first warn event seen.
	Reason string `json:"reason"`
	// Probes is the trace's total Def 2.2 probe count across its local
	// spans.
	Probes int64 `json:"probes"`
	// Spans is the trace's locally-observed span tree in start order,
	// capped at spansPerTraceLimit; SpansDropped counts spans beyond the
	// cap (a trace context reused across many queries cannot grow a ring
	// entry without bound). Duration and Probes still cover every span,
	// retained or dropped.
	Spans        []Span `json:"spans"`
	SpansDropped int    `json:"spans_dropped,omitempty"`
}

// pendingTrace buffers a trace's spans until every locally-started
// span has ended and the keep/discard decision can be made.
type pendingTrace struct {
	spans   []Span
	dropped int             // spans beyond spansPerTraceLimit, not buffered
	dur     time.Duration   // longest span seen, buffered or dropped
	probes  int64           // probe total across every span seen
	ids     map[SpanID]bool // locally-started span IDs (registered at start)
	started int
	ended   int
	hot     bool
	reason  string
}

// SlowTraceLog is the tail-based capture stage of the tracing pipeline:
// every finished span is offered to it, whole traces are retained when
// any of their spans exceeds the latency threshold or carries a
// warn-level event, and everything else is discarded at trace end.
// Unlike probabilistic head sampling, the decision is made after the
// outcome is known — the outliers are exactly the traces never lost.
//
// Retention is a fixed ring: the newest captures overwrite the oldest,
// and /debug/slow (or Captured) reads them newest-first.
type SlowTraceLog struct {
	threshold time.Duration

	mu      sync.Mutex
	pending map[TraceID]*pendingTrace
	order   []TraceID // pending traces in arrival order, for eviction
	ring    []SlowTrace
	next    int

	captured Counter // traces retained
	evicted  Counter // pending traces evicted before their top span ended
	examined Counter // traces examined (completed or evicted)
}

// NewSlowTraceLog builds a log retaining the last capacity slow traces
// (minimum 1; 0 picks a default). threshold is the capture latency: a
// span at or above it marks its whole trace slow. threshold <= 0
// disables the latency trigger — capture then fires only on warn
// events.
func NewSlowTraceLog(capacity int, threshold time.Duration) *SlowTraceLog {
	if capacity <= 0 {
		capacity = defaultSlowCapacity
	}
	return &SlowTraceLog{
		threshold: threshold,
		pending:   make(map[TraceID]*pendingTrace),
		ring:      make([]SlowTrace, 0, capacity),
	}
}

// track registers a locally-started span with its trace's pending
// entry. Registration at start time is what lets offer tell a
// still-running local parent apart from a parent living in another
// process (a replica's engine span under a gateway's wire parent):
// only local spans ever appear in pt.ids.
//
//lint:coldpath runs only for traced spans at StartSpan; the untraced hot path never reaches the slow log and traced queries already price span allocation
func (l *SlowTraceLog) track(trace TraceID, id SpanID) {
	if trace == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	pt := l.pendingLocked(trace)
	pt.ids[id] = true
	pt.started++
}

// pendingLocked returns the trace's pending entry, creating it (and
// evicting the oldest if the table is full) when absent.
func (l *SlowTraceLog) pendingLocked(trace TraceID) *pendingTrace {
	pt := l.pending[trace]
	if pt == nil {
		l.evictOldestLocked()
		pt = &pendingTrace{ids: make(map[SpanID]bool)}
		l.pending[trace] = pt
		l.order = append(l.order, trace)
	}
	return pt
}

// offer receives one finished span from the tracer. warn reports
// whether the span recorded any warn-level event (End passes it so the
// log does not rescan the event list).
//
//lint:coldpath runs only for traced spans at End; the untraced hot path never reaches the slow log and traced queries already price span allocation
func (l *SlowTraceLog) offer(s Span, warn bool) {
	if s.Trace == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	pt := l.pendingLocked(s.Trace)
	if !pt.ids[s.ID] {
		// Started before the log was attached: adopt it now.
		pt.ids[s.ID] = true
		pt.started++
	}
	pt.ended++
	if len(pt.spans) < spansPerTraceLimit {
		pt.spans = append(pt.spans, s)
	} else {
		pt.dropped++
	}
	if s.Duration > pt.dur {
		pt.dur = s.Duration
	}
	pt.probes += s.Probes
	if warn && !pt.hot {
		pt.hot = true
		pt.reason = "event:" + firstWarnName(s.Events)
	}
	if l.threshold > 0 && s.Duration >= l.threshold && (!pt.hot || pt.reason == "") {
		pt.hot = true
		pt.reason = "threshold"
	}
	// Every locally-started span has ended: the trace's local tree is
	// complete and the keep/discard decision is due. A later span of
	// the same trace (a sequential batch RPC under a remote parent)
	// opens a fresh pending entry and merges into the same ring slot at
	// retention.
	if pt.ended >= pt.started {
		l.finalizeLocked(s.Trace, pt)
	}
}

// evictOldestLocked frees one pending slot when the table is full. The
// oldest pending trace is the least likely to still complete.
func (l *SlowTraceLog) evictOldestLocked() {
	for len(l.pending) >= pendingTraceLimit && len(l.order) > 0 {
		id := l.order[0]
		l.order = l.order[1:]
		if pt := l.pending[id]; pt != nil {
			delete(l.pending, id)
			l.examined.Inc()
			if pt.hot {
				// Evicted but already marked hot: retain what was seen
				// rather than lose a known outlier.
				l.retainLocked(id, pt)
			} else {
				l.evicted.Inc()
			}
		}
	}
}

// finalizeLocked decides a completed trace: retain if hot, drop if not.
func (l *SlowTraceLog) finalizeLocked(id TraceID, pt *pendingTrace) {
	delete(l.pending, id)
	for i, oid := range l.order {
		if oid == id {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	l.examined.Inc()
	if pt.hot {
		l.retainLocked(id, pt)
	}
}

// retainLocked copies a hot trace into the ring, merging into an
// existing capture of the same trace (a trace with several local
// top-level spans — e.g. two batch RPCs — finalizes more than once).
// A merged entry's Spans stay capped at spansPerTraceLimit with the
// overflow counted, so a client reusing one trace context across many
// queries cannot grow a ring entry without bound.
func (l *SlowTraceLog) retainLocked(id TraceID, pt *pendingTrace) {
	for i := range l.ring {
		if l.ring[i].Trace == id {
			e := &l.ring[i]
			for _, s := range pt.spans {
				if len(e.Spans) < spansPerTraceLimit {
					e.Spans = append(e.Spans, s)
				} else {
					e.SpansDropped++
				}
			}
			e.SpansDropped += pt.dropped
			if pt.dur > e.Duration {
				e.Duration = pt.dur
			}
			e.Probes += pt.probes
			return
		}
	}
	st := SlowTrace{
		Trace:        id,
		CapturedAt:   time.Now(),
		Duration:     pt.dur,
		Reason:       pt.reason,
		Probes:       pt.probes,
		Spans:        pt.spans,
		SpansDropped: pt.dropped,
	}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, st)
	} else {
		l.ring[l.next] = st
	}
	l.next = (l.next + 1) % cap(l.ring)
	l.captured.Inc()
}

// Captured returns the retained slow traces, newest first.
func (l *SlowTraceLog) Captured() []SlowTrace {
	l.mu.Lock()
	out := make([]SlowTrace, len(l.ring))
	// Unroll the ring so out is oldest→newest, then reverse.
	n := len(l.ring)
	start := 0
	if n == cap(l.ring) {
		start = l.next
	}
	for i := 0; i < n; i++ {
		out[n-1-i] = l.ring[(start+i)%n]
	}
	l.mu.Unlock()
	return out
}

// WriteJSON writes the retained slow traces (newest first) as a JSON
// document — the /debug/slow payload.
func (l *SlowTraceLog) WriteJSON(w io.Writer) error {
	type payload struct {
		ThresholdNS int64       `json:"threshold_ns"`
		Captured    int64       `json:"captured_total"`
		Evicted     int64       `json:"evicted_total"`
		Examined    int64       `json:"examined_total"`
		Traces      []SlowTrace `json:"traces"`
	}
	p := payload{
		ThresholdNS: int64(l.threshold),
		Captured:    l.captured.Value(),
		Evicted:     l.evicted.Value(),
		Examined:    l.examined.Value(),
		Traces:      l.Captured(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// RegisterMetrics registers the log's own counters under prefix
// (default "lcakp_slowtrace").
func (l *SlowTraceLog) RegisterMetrics(reg *Registry, prefix string) error {
	if prefix == "" {
		prefix = "lcakp_slowtrace"
	}
	type m struct {
		name, help string
		c          *Counter
	}
	for _, x := range []m{
		{prefix + "_captured_total", "Slow traces force-retained by the tail capture ring.", &l.captured},
		{prefix + "_evicted_total", "Pending traces evicted before their top-level span ended.", &l.evicted},
		{prefix + "_examined_total", "Traces examined by the tail capture decision.", &l.examined},
	} {
		if err := reg.Register(x.name, x.help, x.c); err != nil {
			return fmt.Errorf("obs: slow log metrics: %w", err)
		}
	}
	return nil
}

// firstWarnName returns the name of the first warn-level event.
func firstWarnName(events []Event) string {
	for _, e := range events {
		if e.Level == LevelWarn {
			return e.Name
		}
	}
	return "unknown"
}
