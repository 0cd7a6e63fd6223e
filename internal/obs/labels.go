package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// DefaultLabelLimit bounds a vec's distinct label values when the
// caller passes limit <= 0. Label cardinality is the classic metrics
// foot-gun: a label fed from an unbounded domain (tenant IDs, item
// indices) grows the scrape without bound. Every vec therefore refuses
// a new label value beyond its limit.
const DefaultLabelLimit = 64

// vec is the shared machinery of the labeled metric families: one
// label dimension, a bounded set of read-through child metrics keyed
// by label value, and a deterministic sorted exposition. It backs
// CounterVec and GaugeVec; the typed wrappers exist so AttachFunc
// takes the family's callback type.
type vec struct {
	label string
	limit int

	mu       sync.RWMutex
	children map[string]Metric
}

func newVec(label string, limit int) *vec {
	if limit <= 0 {
		limit = DefaultLabelLimit
	}
	return &vec{label: label, limit: limit, children: make(map[string]Metric)}
}

// attach installs m under value, replacing any existing child — the
// re-registration path for read-through children whose backing object
// is recreated (a tenant re-derived after eviction). Beyond the limit
// the attach is dropped and an error returned; the bound holds.
func (v *vec) attach(value string, m Metric) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.children[value]; !ok && len(v.children) >= v.limit {
		return fmt.Errorf("obs: label %s=%q beyond cardinality limit %d", v.label, value, v.limit)
	}
	v.children[value] = m
	return nil
}

// snapshot returns the children sorted by label value.
func (v *vec) snapshot() (values []string, metrics []Metric) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	values = make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	sort.Strings(values)
	metrics = make([]Metric, 0, len(values))
	for _, val := range values {
		metrics = append(metrics, v.children[val])
	}
	return values, metrics
}

// escapeLabelValue escapes a label value per the Prometheus text
// format (backslash, double quote, newline).
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labeledName renders name{label="value"} with the value escaped.
func labeledName(name, label, value string) string {
	return fmt.Sprintf("%s{%s=\"%s\"}", name, label, escapeLabelValue(value))
}

// CounterVec is a family of counters partitioned by one label — the
// per-tenant counter surface. The zero value is not usable; build with
// NewCounterVec.
type CounterVec struct {
	*vec
}

// NewCounterVec builds a counter family over the given label name;
// limit bounds distinct label values (<= 0 selects DefaultLabelLimit).
func NewCounterVec(label string, limit int) *CounterVec {
	return &CounterVec{vec: newVec(label, limit)}
}

// AttachFunc installs a read-through child under value (replacing any
// existing child) — the bridge for pre-existing tallies such as a
// tenant engine's totals. It fails beyond the cardinality limit.
func (v *CounterVec) AttachFunc(value string, fn CounterFunc) error {
	return v.attach(value, fn)
}

func (v *CounterVec) kind() string { return "counter" }

func (v *CounterVec) expose(w io.Writer, name string) error {
	values, metrics := v.snapshot()
	for i, val := range values {
		if err := metrics[i].expose(w, labeledName(name, v.label, val)); err != nil {
			return err
		}
	}
	return nil
}

// GaugeVec is a family of gauges partitioned by one label — the
// breaker-state-by-replica surface. Build with NewGaugeVec.
type GaugeVec struct {
	*vec
}

// NewGaugeVec builds a gauge family over the given label name; limit
// bounds distinct label values (<= 0 selects DefaultLabelLimit).
func NewGaugeVec(label string, limit int) *GaugeVec {
	return &GaugeVec{vec: newVec(label, limit)}
}

// AttachFunc installs a read-through child under value (replacing any
// existing child). It fails beyond the cardinality limit.
func (v *GaugeVec) AttachFunc(value string, fn GaugeFunc) error {
	return v.attach(value, fn)
}

func (v *GaugeVec) kind() string { return "gauge" }

func (v *GaugeVec) expose(w io.Writer, name string) error {
	values, metrics := v.snapshot()
	for i, val := range values {
		if err := metrics[i].expose(w, labeledName(name, v.label, val)); err != nil {
			return err
		}
	}
	return nil
}
