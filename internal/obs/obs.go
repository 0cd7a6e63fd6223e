// Package obs is the observability subsystem of the serving stack: a
// dependency-free metrics registry (atomic counters, read-through
// gauges, and log-bucketed latency histograms), a Prometheus-text
// exposition surface, and trace propagation primitives (trace IDs
// carried through context.Context with a fixed-size ring-buffer span
// recorder).
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
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metric is one registerable metric kind. The interface is closed
// (unexported methods): Counter, Histogram, CounterFunc, GaugeFunc and
// the labeled CounterVec and GaugeVec are the supported kinds.
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
