// Package obs is the observability subsystem of the serving stack: a
// dependency-free metrics registry (atomic counters, gauges, and
// log-bucketed latency histograms), a Prometheus-text exposition
// surface, and trace propagation primitives (trace IDs carried through
// context.Context with a fixed-size ring-buffer span recorder).
//
// The LCA model's defining property is bounded per-query cost
// (Definition 2.2 prices every membership query in oracle accesses),
// so per-query counters and latency distributions are the system's
// primary correctness-adjacent signal: a replica whose probe counts
// drift has a bug, not a load problem. obs makes that signal scrapable
// — over HTTP (/metrics) and over the cluster wire protocol
// (MsgMetrics) — without adding any dependency or touching an answer
// bit: every value here is operational-only and can never influence
// C(I, r).
//
// The package deliberately implements a small subset of the Prometheus
// data model on the standard library alone: counters and gauges map
// directly, and histograms are exposed as summaries with precomputed
// p50/p95/p99 quantiles (the scrape-side aggregation a full histogram
// would enable is not worth a dependency here).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metric is one registerable metric kind. The interface is closed
// (unexported methods): Counter, Gauge, Histogram, CounterFunc, and
// GaugeFunc are the supported kinds.
type Metric interface {
	// kind returns the Prometheus TYPE keyword.
	kind() string
	// expose writes the metric's sample lines (no HELP/TYPE headers).
	expose(w io.Writer, name string) error
}

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a Counter must not be copied after first use.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a fresh counter at zero.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n (n must be non-negative; decrements
// would break the monotonicity scrape consumers rely on).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) kind() string { return "counter" }

func (c *Counter) expose(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
	return err
}

// Gauge is a settable instantaneous value. The zero value is ready to
// use; a Gauge must not be copied after first use.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a fresh gauge at zero.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) kind() string { return "gauge" }

func (g *Gauge) expose(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
	return err
}

// CounterFunc adapts a read callback into a counter metric — the
// bridge for pre-existing atomic tallies (server stats, engine totals)
// that should appear on a scrape without migrating their write path.
// The callback must be safe for concurrent use and monotone.
type CounterFunc func() int64

func (f CounterFunc) kind() string { return "counter" }

func (f CounterFunc) expose(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, f())
	return err
}

// GaugeFunc adapts a read callback into a gauge metric (healthy
// replica counts, pool sizes). The callback must be safe for
// concurrent use.
type GaugeFunc func() float64

func (f GaugeFunc) kind() string { return "gauge" }

func (f GaugeFunc) expose(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(f()))
	return err
}

// entry is one registered metric with its exposition metadata.
type entry struct {
	name   string
	help   string
	metric Metric
}

// Registry is a concurrent collection of named metrics with a
// Prometheus-text exposition. Registration is rare and lock-guarded;
// metric updates go straight to the metric's atomics and never touch
// the registry, so instrumented hot paths pay no registry cost.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]entry)}
}

// Register adds m under name. Names must match the Prometheus metric
// grammar ([a-zA-Z_:][a-zA-Z0-9_:]*) and be unique within the
// registry.
func (r *Registry) Register(name, help string, m Metric) error {
	if !validMetricName(name) {
		return fmt.Errorf("obs: invalid metric name %q", name)
	}
	if m == nil {
		return fmt.Errorf("obs: register %s: nil metric", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("obs: metric %s already registered", name)
	}
	r.entries[name] = entry{name: name, help: help, metric: m}
	return nil
}

// MustRegister is Register, panicking on error — for wiring done once
// at startup where a bad name is a programming error.
func (r *Registry) MustRegister(name, help string, m Metric) {
	if err := r.Register(name, help, m); err != nil {
		panic(err)
	}
}

// Counter returns the counter registered under name, creating and
// registering it on first use. It panics if name is invalid or already
// registered as a different kind.
func (r *Registry) Counter(name, help string) *Counter {
	return getOrCreate(r, name, help, "counter", NewCounter)
}

// Gauge returns the gauge registered under name, creating and
// registering it on first use. It panics if name is invalid or already
// registered as a different kind.
func (r *Registry) Gauge(name, help string) *Gauge {
	return getOrCreate(r, name, help, "gauge", NewGauge)
}

// Histogram returns the histogram registered under name, creating and
// registering it on first use. It panics if name is invalid or already
// registered as a different kind.
func (r *Registry) Histogram(name, help string) *Histogram {
	return getOrCreate(r, name, help, "histogram", NewHistogram)
}

// getOrCreate returns the metric of kind M registered under name,
// registering create() on first use. A miss under the read lock is
// re-checked under the write lock, so goroutines racing on a name's
// first use all get the one metric that won.
func getOrCreate[M Metric](r *Registry, name, help, kind string, create func() M) M {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		if !validMetricName(name) {
			panic(fmt.Errorf("obs: invalid metric name %q", name))
		}
		r.mu.Lock()
		if e, ok = r.entries[name]; !ok {
			e = entry{name: name, help: help, metric: create()}
			r.entries[name] = e
		}
		r.mu.Unlock()
	}
	m, isKind := e.metric.(M)
	if !isKind {
		panic(fmt.Sprintf("obs: metric %s is a %s, not a %s", name, e.metric.kind(), kind))
	}
	return m
}

// WritePrometheus writes every registered metric in the Prometheus
// text exposition format (version 0.0.4), sorted by name so scrapes —
// which travel over protocol frames — are byte-deterministic for a
// given metric state. The output is strictly plain 0.0.4: no exemplar
// annotations, so any Prometheus/promtool scrape parses it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteExemplarExposition writes the same exposition with the
// package's exemplar annotations appended to histogram quantile lines
// (` # {trace_id="...",tenant="..."} v`). This extended format is the
// in-repo forensics contract — ParseExposition reads it — but it is
// NOT valid Prometheus 0.0.4 or OpenMetrics (neither permits exemplars
// on summary quantiles), so it is served only on /debug/exemplars,
// never /metrics.
func (r *Registry) WriteExemplarExposition(w io.Writer) error {
	return r.writeExposition(w, true)
}

// exemplarExposer is the optional Metric extension for kinds that can
// annotate their samples with exemplars in the extended exposition.
type exemplarExposer interface {
	exposeExemplars(w io.Writer, name string) error
}

func (r *Registry) writeExposition(w io.Writer, exemplars bool) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	entries := make([]entry, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		entries = append(entries, r.entries[name])
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	for _, e := range entries {
		if e.help != "" {
			if _, err := fmt.Fprintf(bw, "# HELP %s %s\n", e.name, e.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.metric.kind()); err != nil {
			return err
		}
		if ee, ok := e.metric.(exemplarExposer); ok && exemplars {
			if err := ee.exposeExemplars(bw, e.name); err != nil {
				return err
			}
			continue
		}
		if err := e.metric.expose(bw, e.name); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry's exposition —
// mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// validMetricName reports whether name matches the Prometheus metric
// name grammar.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// formatFloat renders a float sample value in the shortest exact form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
