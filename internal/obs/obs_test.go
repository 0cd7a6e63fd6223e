package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryRegisterAndExpose(t *testing.T) {
	reg := NewRegistry()
	c, h := &Counter{}, &Histogram{}
	c.Add(41)
	c.Inc()
	h.Observe(time.Millisecond)
	for _, m := range []struct {
		name, help string
		metric     Metric
	}{
		{"test_queries_total", "queries served", c},
		{"test_temperature", "current value", GaugeFunc(func() float64 { return 3.5 })},
		{"test_healthy", "healthy backends", GaugeFunc(func() float64 { return 2 })},
		{"test_requests_total", "requests", CounterFunc(func() int64 { return 7 })},
		{"test_latency_seconds", "query latency", h},
	} {
		if err := reg.Register(m.name, m.help, m.metric); err != nil {
			t.Fatalf("Register %s: %v", m.name, err)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_queries_total queries served",
		"# TYPE test_queries_total counter",
		"test_queries_total 42",
		"# TYPE test_temperature gauge",
		"test_temperature 3.5",
		"test_healthy 2",
		"test_requests_total 7",
		"# TYPE test_latency_seconds summary",
		`test_latency_seconds{quantile="0.5"}`,
		"test_latency_seconds_count 1",
		"# TYPE test_latency_seconds_max gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Sorted by name: deterministic scrape bytes.
	if i, j := strings.Index(out, "test_healthy"), strings.Index(out, "test_temperature"); i > j {
		t.Error("exposition not sorted by metric name")
	}
	var sb2 strings.Builder
	if err := reg.WritePrometheus(&sb2); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if sb2.String() != out {
		t.Error("two scrapes of unchanged state differ; exposition must be deterministic")
	}
}

func TestRegistryRejectsBadAndDuplicateNames(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("9starts_with_digit", "", &Counter{}); err == nil {
		t.Error("Register accepted a name starting with a digit")
	}
	if err := reg.Register("has spaces", "", &Counter{}); err == nil {
		t.Error("Register accepted a name with spaces")
	}
	if err := reg.Register("", "", &Counter{}); err == nil {
		t.Error("Register accepted an empty name")
	}
	if err := reg.Register("ok_name", "", nil); err == nil {
		t.Error("Register accepted a nil metric")
	}
	if err := reg.Register("dup", "", &Counter{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := reg.Register("dup", "", &Counter{}); err == nil {
		t.Error("Register accepted a duplicate name")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	c, h := &Counter{}, &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc()
				h.Observe(time.Microsecond)
				_ = reg.Register(fmt.Sprintf("con_%d_%d_total", w, i), "", CounterFunc(c.Value))
				_ = reg.WritePrometheus(io.Discard)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*200 {
		t.Errorf("counter = %d, want %d", got, 8*200)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if got := strings.Count(sb.String(), "# TYPE "); got != 8*200 {
		t.Errorf("exposition holds %d families, want %d", got, 8*200)
	}
}

func TestDebugServerServesMetricsTracesAndPprof(t *testing.T) {
	reg := NewRegistry()
	hits := &Counter{}
	hits.Add(5)
	if err := reg.Register("dbg_hits_total", "hits", hits); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tr := NewTracer(16)
	_, span := tr.StartSpan(t.Context(), "dbg.work")
	span.End()

	d, err := NewDebugServer("127.0.0.1:0", reg, tr.Recorder(), nil)
	if err != nil {
		t.Fatalf("NewDebugServer: %v", err)
	}
	defer d.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "dbg_hits_total 5") {
		t.Errorf("/metrics missing counter; got:\n%s", body)
	}
	if body := get("/debug/traces"); !strings.Contains(body, "name=dbg.work") {
		t.Errorf("/debug/traces missing span; got:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned an empty body")
	}
}
