package obs

import (
	"strings"
	"testing"
)

// Len returns the number of distinct resident label values (the
// overflow child excluded).
func (v *vec) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.children)
}

func TestCounterVecExposition(t *testing.T) {
	v := NewCounterVec("tenant", 8)
	// Attach in reverse order: the exposition sorts by label value.
	for _, c := range []struct {
		value string
		n     int64
	}{{"i99-s8", 1}, {"i17-s7", 4}} {
		if err := v.AttachFunc(c.value, func() int64 { return c.n }); err != nil {
			t.Fatalf("AttachFunc: %v", err)
		}
	}

	reg := NewRegistry()
	if err := reg.Register("lcakp_tenant_queries_total", "per-tenant queries", v); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lcakp_tenant_queries_total counter",
		`lcakp_tenant_queries_total{tenant="i17-s7"} 4`,
		`lcakp_tenant_queries_total{tenant="i99-s8"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted by label value: i17 before i99.
	if strings.Index(out, `tenant="i17-s7"`) > strings.Index(out, `tenant="i99-s8"`) {
		t.Errorf("children not sorted by label value:\n%s", out)
	}
}

func TestCounterVecAttachFunc(t *testing.T) {
	v := NewCounterVec("tenant", 4)
	n := int64(7)
	if err := v.AttachFunc("x", func() int64 { return n }); err != nil {
		t.Fatalf("attach: %v", err)
	}
	var b strings.Builder
	_ = v.expose(&b, "m")
	if !strings.Contains(b.String(), `m{tenant="x"} 7`) {
		t.Errorf("attached func not exposed:\n%s", b.String())
	}
	// Replacing an attached child is allowed (re-derivation path).
	if err := v.AttachFunc("x", func() int64 { return 9 }); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	b.Reset()
	_ = v.expose(&b, "m")
	if !strings.Contains(b.String(), `m{tenant="x"} 9`) || v.Len() != 1 {
		t.Errorf("re-attached func not exposed in place of the first:\n%s", b.String())
	}
	// Attaching beyond the limit fails rather than growing the family.
	small := NewCounterVec("tenant", 1)
	if err := small.AttachFunc("a", func() int64 { return 0 }); err != nil {
		t.Fatalf("attach within limit: %v", err)
	}
	if err := small.AttachFunc("b", func() int64 { return 0 }); err == nil {
		t.Error("AttachFunc beyond limit should fail")
	}
}

func TestGaugeVecExposition(t *testing.T) {
	v := NewGaugeVec("replica", 8)
	if err := v.AttachFunc("127.0.0.1:1", func() float64 { return 1 }); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := v.AttachFunc("127.0.0.1:2", func() float64 { return 0.5 }); err != nil {
		t.Fatalf("attach: %v", err)
	}
	var b strings.Builder
	if err := v.expose(&b, "breaker_state"); err != nil {
		t.Fatalf("expose: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`breaker_state{replica="127.0.0.1:1"} 1`,
		`breaker_state{replica="127.0.0.1:2"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelValueEscaping(t *testing.T) {
	v := NewCounterVec("tenant", 4)
	if err := v.AttachFunc("a\"b\\c\nd", func() int64 { return 1 }); err != nil {
		t.Fatalf("attach: %v", err)
	}
	var b strings.Builder
	if err := v.expose(&b, "m"); err != nil {
		t.Fatalf("expose: %v", err)
	}
	want := `m{tenant="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped exposition = %q, want substring %q", b.String(), want)
	}
}
