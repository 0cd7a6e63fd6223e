package obs

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end query across processes; 0 means
// "no trace". A trace is minted where a query enters the system (the
// gateway, or a client) and carried through every layer it crosses —
// context.Context in-process, a protocol frame header across the wire.
type TraceID uint64

// String renders the ID in the fixed-width hex form used by the
// -trace dumps, so IDs can be grepped across process logs.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// MarshalJSON renders the ID as its quoted hex form, matching the
// -trace dump so IDs grep identically across text dumps and
// /debug/slow JSON.
func (t TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON parses the quoted hex form.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	v, err := parseHexID(b)
	*t = TraceID(v)
	return err
}

// SpanID identifies one span within a trace; 0 means "no span".
type SpanID uint64

// String renders the ID in fixed-width hex.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// MarshalJSON renders the ID as its quoted hex form.
func (s SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the quoted hex form.
func (s *SpanID) UnmarshalJSON(b []byte) error {
	v, err := parseHexID(b)
	*s = SpanID(v)
	return err
}

// parseHexID decodes a JSON-quoted 64-bit hex ID.
func parseHexID(b []byte) (uint64, error) {
	s := strings.Trim(string(b), `"`)
	if s == "" || s == "null" {
		return 0, nil
	}
	return strconv.ParseUint(s, 16, 64)
}

// ParseTraceID parses the fixed-width hex form (the String rendering)
// back into a TraceID — how /debug/traces?trace=<id> resolves an ID
// copied out of a metrics exemplar or a log line.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// SpanContext is the propagated part of a span: enough for a callee —
// possibly in another process — to attach child spans to the right
// trace.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether sc carries a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// spanCtxKey locates the active SpanContext in a context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc as the active span — what a
// server installs after decoding a traced frame, and what StartSpan
// installs for its callees.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc) //lint:alloc span propagation is the opt-in price of tracing; untraced queries never reach it
}

// SpanFromContext returns the active span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// TraceIDFromContext returns the active trace ID, or 0 when ctx is
// untraced — the exemplar-site helper: passing the result straight to
// Histogram.ObserveExemplar makes untraced observations take the
// plain, allocation-free Observe path.
func TraceIDFromContext(ctx context.Context) TraceID {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc.Trace
}

// Attr is one key=value annotation on a span event. Values are
// pre-rendered strings: events live on decision paths (a hedge fired,
// a breaker opened), never on the cached hit path, so the formatting
// cost is paid only where a decision was actually made.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string-valued event attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer-valued event attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// EventLevel classifies an event for the tail-capture policy.
type EventLevel uint8

const (
	// LevelInfo annotates normal decisions (a cache fill, a joined
	// shared run, a tenant derivation).
	LevelInfo EventLevel = iota
	// LevelWarn marks tail-suspect decisions (hedge fired, retry,
	// failover, breaker opened, quota reject, budget exhausted, fault
	// injected). Any span carrying a warn event is force-retained by an
	// attached SlowTraceLog regardless of its latency.
	LevelWarn
)

// String renders the level for dumps and JSON.
func (l EventLevel) String() string {
	if l == LevelWarn {
		return "warn"
	}
	return "info"
}

// MarshalJSON renders the level as its string form.
func (l EventLevel) MarshalJSON() ([]byte, error) {
	return []byte(`"` + l.String() + `"`), nil
}

// Event is one timestamped annotation on a span: which decision fired,
// when, and at what accumulated probe cost. The Probes field stamps
// the span's running probe count at the moment the event was recorded,
// so an ordered event list doubles as the query's Def 2.2 cost ledger:
// each decision is priced by the probes spent up to it.
type Event struct {
	Name   string     `json:"name"`
	Time   time.Time  `json:"time"`
	Level  EventLevel `json:"level"`
	Probes int64      `json:"probes"`
	Attrs  []Attr     `json:"attrs,omitempty"`
}

// MaxSpanEvents bounds the events retained per span. A span that tries
// to record more keeps its first MaxSpanEvents and counts the rest in
// EventsDropped — bounded memory per span, and the earliest decisions
// (which explain the later ones) are the ones kept.
const MaxSpanEvents = 16

// eventSink is the mutable side of a live span. It lives behind a
// pointer so finished Span values stay freely copyable by the recorder
// ring and its readers: the mutex and the accumulating slices never
// travel with the copies — End snapshots them into plain fields.
type eventSink struct {
	mu      sync.Mutex
	events  []Event
	dropped int32
	probes  atomic.Int64
	warn    bool
}

// Span is one recorded unit of work within a trace.
type Span struct {
	// Trace is the owning trace; ID this span; Parent the span this one
	// was started under (0 for a root span).
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"span"`
	Parent SpanID  `json:"parent"`
	// Name says what the span measures ("gateway.query",
	// "engine.query", ...).
	Name string `json:"name"`
	// Start and Duration bound the work. Duration is 0 until End.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Probes is the span's Def 2.2 probe count: oracle accesses and
	// replica RPCs charged to this span via AddProbes, frozen at End.
	Probes int64 `json:"probes,omitempty"`
	// Events are the span's recorded decision points in order;
	// EventsDropped counts events discarded past MaxSpanEvents.
	Events        []Event `json:"events,omitempty"`
	EventsDropped int32   `json:"events_dropped,omitempty"`

	tracer *Tracer
	sink   *eventSink
	// ended is driven by the atomic package functions rather than an
	// atomic.Bool so finished Span values stay freely copyable (the
	// recorder ring and its readers copy them by value).
	ended uint32
}

// Event records an informational decision event on a live span. Events
// on an ended (or nil) span are dropped — the span has already been
// snapshotted into the recorder. Safe for concurrent use.
func (s *Span) Event(name string, attrs ...Attr) { s.event(LevelInfo, name, attrs) }

// WarnEvent records a tail-suspect decision event (see LevelWarn).
func (s *Span) WarnEvent(name string, attrs ...Attr) { s.event(LevelWarn, name, attrs) }

func (s *Span) event(level EventLevel, name string, attrs []Attr) {
	if s == nil || s.sink == nil || atomic.LoadUint32(&s.ended) != 0 {
		return
	}
	sk := s.sink
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if level == LevelWarn {
		sk.warn = true
	}
	if len(sk.events) >= MaxSpanEvents {
		sk.dropped++
		return
	}
	sk.events = append(sk.events, Event{
		Name:   name,
		Time:   time.Now(),
		Level:  level,
		Probes: sk.probes.Load(),
		Attrs:  attrs,
	})
}

// AddProbes charges n oracle probes (or replica RPCs) to the span's
// running Def 2.2 cost ledger. Events recorded afterwards carry the
// updated count. No-op on a nil or ended span.
func (s *Span) AddProbes(n int64) {
	if s == nil || s.sink == nil {
		return
	}
	s.sink.probes.Add(n)
}

// End stamps the span's duration, freezes its event list and probe
// count, and records it into the tracer's ring buffer (and the slow
// log, if one is attached). End is idempotent; only the first call
// records. No-op on a nil span.
func (s *Span) End() {
	if s == nil || s.tracer == nil || atomic.SwapUint32(&s.ended, 1) != 0 {
		return
	}
	s.Duration = time.Since(s.Start)
	done := Span{
		Trace:    s.Trace,
		ID:       s.ID,
		Parent:   s.Parent,
		Name:     s.Name,
		Start:    s.Start,
		Duration: s.Duration,
	}
	warn := false
	if sk := s.sink; sk != nil {
		sk.mu.Lock()
		done.Events = sk.events
		done.EventsDropped = sk.dropped
		warn = sk.warn
		sk.mu.Unlock()
		done.Probes = sk.probes.Load()
		s.Probes = done.Probes
	}
	s.tracer.rec.record(done)
	if l := s.tracer.slow.Load(); l != nil {
		l.offer(done, warn)
	}
}

// Context returns the span's propagation context.
func (s *Span) Context() SpanContext { return SpanContext{Trace: s.Trace, Span: s.ID} }

// activeSpanKey locates the live *Span in a context, distinct from
// spanCtxKey's copyable SpanContext: the SpanContext crosses process
// boundaries, the live span pointer is how in-process callees deep in
// the stack (a router retry loop, an engine middleware) attach events
// to the span that owns them without threading it explicitly.
type activeSpanKey struct{}

// ContextWithActiveSpan returns ctx carrying s as the live span for
// AddEvent/AddProbes. StartSpan installs this automatically.
func ContextWithActiveSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, activeSpanKey{}, s) //lint:alloc span propagation is the opt-in price of tracing; untraced queries never reach it
}

// ActiveSpanFromContext returns the live span carried by ctx, or nil.
func ActiveSpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(activeSpanKey{}).(*Span)
	return s
}

// AddEvent records an informational event on the span active in ctx.
// No-op when ctx carries no live span (untraced queries): the call
// costs one context lookup and nothing else.
func AddEvent(ctx context.Context, name string, attrs ...Attr) {
	ActiveSpanFromContext(ctx).event(LevelInfo, name, attrs)
}

// AddWarnEvent records a tail-suspect event on the span active in ctx
// (see LevelWarn). No-op when ctx carries no live span.
func AddWarnEvent(ctx context.Context, name string, attrs ...Attr) {
	ActiveSpanFromContext(ctx).event(LevelWarn, name, attrs)
}

// AddProbes charges n probes to the span active in ctx. No-op when ctx
// carries no live span.
func AddProbes(ctx context.Context, n int64) {
	ActiveSpanFromContext(ctx).AddProbes(n)
}

// tracerSeq distinguishes tracers within one process; combined with
// the PID it keeps concurrently minting processes on one host from
// colliding. Trace randomness is operational-only (it names query
// records, it never reaches an answer), so uniqueness — not
// unpredictability — is the requirement.
var tracerSeq atomic.Uint64

// Tracer mints spans and records finished ones into a fixed-size ring
// buffer. It is safe for concurrent use; recording is one mutex-guarded
// copy into the ring, no allocation after construction.
type Tracer struct {
	base uint64
	ctr  atomic.Uint64
	rec  *SpanRecorder
	slow atomic.Pointer[SlowTraceLog]
}

// NewTracer builds a tracer whose recorder retains the last capacity
// finished spans (minimum 1).
func NewTracer(capacity int) *Tracer {
	return &Tracer{
		base: splitmix64(uint64(os.Getpid())<<32 ^ tracerSeq.Add(1)),
		rec:  NewSpanRecorder(capacity),
	}
}

// Recorder returns the tracer's span ring buffer.
func (t *Tracer) Recorder() *SpanRecorder { return t.rec }

// SetSlowLog attaches a SlowTraceLog: every span finished after this
// call is offered to it for tail-based capture. Pass nil to detach.
func (t *Tracer) SetSlowLog(l *SlowTraceLog) { t.slow.Store(l) }

// SlowLog returns the attached SlowTraceLog, or nil.
func (t *Tracer) SlowLog() *SlowTraceLog { return t.slow.Load() }

// StartSpan begins a span named name. If ctx carries a SpanContext the
// new span joins that trace as a child (this is how a replica's engine
// span lands in the trace the gateway minted); otherwise a fresh trace
// is minted and this span is its root. The returned context carries
// the new span for callees; call End on the span when the work
// finishes.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{ //lint:alloc one span per traced query by design; the recorder ring retains it after End
		Name:   name,
		Start:  time.Now(),
		ID:     SpanID(t.newID()),
		tracer: t,
		sink:   &eventSink{}, //lint:alloc one event sink per traced query; carries the span's mutable event list so finished Span values stay copyable
	}
	if parent, ok := SpanFromContext(ctx); ok {
		s.Trace = parent.Trace
		s.Parent = parent.Span
	} else {
		s.Trace = TraceID(t.newID())
	}
	// The slow log learns about span starts so that at End time it can
	// tell a still-running local parent apart from a remote one.
	if l := t.slow.Load(); l != nil {
		l.track(s.Trace, s.ID)
	}
	return ContextWithActiveSpan(ContextWithSpan(ctx, s.Context()), s), s
}

// newID returns a nonzero process-locally unique ID.
func (t *Tracer) newID() uint64 {
	for {
		if id := splitmix64(t.base ^ t.ctr.Add(1)); id != 0 {
			return id
		}
	}
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap
// bijective scrambler turning sequential inputs into well-spread IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SpanRecorder is a fixed-size ring buffer of finished spans: recent
// traces stay inspectable (-trace dumps, /debug/traces) at a hard
// memory bound, and old spans age out instead of growing the process.
type SpanRecorder struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
}

// NewSpanRecorder builds a recorder retaining the last capacity spans
// (minimum 1).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRecorder{buf: make([]Span, 0, capacity)}
}

// record appends one finished span, overwriting the oldest when full.
func (r *SpanRecorder) record(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// Total returns the number of spans ever recorded (retained or aged
// out).
func (r *SpanRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Spans returns the retained spans sorted by start time.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	out := make([]Span, len(r.buf))
	copy(out, r.buf)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Trace returns the retained spans belonging to one trace, sorted by
// start time.
func (r *SpanRecorder) Trace(id TraceID) []Span {
	all := r.Spans()
	out := all[:0]
	for _, s := range all {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// WriteText dumps the retained spans one per line — the -trace dump
// format of lcaserver and lcagateway. Lines share a trace via the
// trace= column, greppable across the dumps of different processes.
// Span events render indented under their span, each stamped with the
// probe count accumulated when it fired.
func (r *SpanRecorder) WriteText(w io.Writer) error {
	spans := r.Spans()
	if _, err := fmt.Fprintf(w, "# %d spans retained (%d recorded)\n", len(spans), r.Total()); err != nil {
		return err
	}
	return writeSpansText(w, spans)
}

// WriteTrace dumps one trace's retained spans in WriteText format —
// the /debug/traces?trace=<id> view.
func (r *SpanRecorder) WriteTrace(w io.Writer, id TraceID) error {
	spans := r.Trace(id)
	if _, err := fmt.Fprintf(w, "# trace %s: %d spans retained\n", id, len(spans)); err != nil {
		return err
	}
	return writeSpansText(w, spans)
}

// writeSpansText renders spans (and their events) in the dump format.
func writeSpansText(w io.Writer, spans []Span) error {
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "trace=%s span=%s parent=%s name=%s start=%s dur=%s probes=%d\n",
			s.Trace, s.ID, s.Parent, s.Name,
			s.Start.Format(time.RFC3339Nano), s.Duration, s.Probes); err != nil {
			return err
		}
		for _, e := range s.Events {
			if err := writeEventText(w, s.Start, e); err != nil {
				return err
			}
		}
		if s.EventsDropped > 0 {
			if _, err := fmt.Fprintf(w, "  ... %d events dropped past the %d-event bound\n", s.EventsDropped, MaxSpanEvents); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeEventText renders one event line: offset from span start, level,
// probe ledger position, then the attributes.
func writeEventText(w io.Writer, spanStart time.Time, e Event) error {
	var b strings.Builder
	fmt.Fprintf(&b, "  event=%s +%s level=%s probes=%d", e.Name, e.Time.Sub(spanStart), e.Level, e.Probes)
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}
