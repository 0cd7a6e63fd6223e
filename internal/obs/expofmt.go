package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is a validating parser for the exposition text the
// Registry writes — the Prometheus 0.0.4 text format
// (WritePrometheus, served on /metrics) plus the package's extended
// variant carrying OpenMetrics-style exemplar annotations on summary
// quantile lines (WriteExemplarExposition, served on /debug/exemplars;
// never /metrics, since no scrape format permits exemplars there). It
// is what keeps the exposition honest: the golden test round-trips
// /metrics through it, the /debug/exemplars tests read exemplars with
// it, and any drift between writer and grammar fails loudly instead of
// silently producing unscrapable text.

// Family is one parsed metric family: a TYPE header and its samples.
type Family struct {
	Name string
	Help string
	Type string // counter | gauge | summary
	// Samples are the family's sample lines in exposition order. A
	// summary's _sum/_count lines appear here with their full names.
	Samples []Sample
}

// Sample is one parsed sample line.
type Sample struct {
	// Name is the full sample name, including any _sum/_count suffix.
	Name string
	// Labels are the label pairs in exposition order.
	Labels []Attr
	Value  float64
	// Exemplar is the OpenMetrics exemplar annotation, if present.
	Exemplar *SampleExemplar
}

// SampleExemplar is a parsed `# {labels} value` exemplar annotation.
type SampleExemplar struct {
	Labels []Attr
	Value  float64
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Key == name {
			return l.Value
		}
	}
	return ""
}

// Label returns the value of the named exemplar label ("" when absent).
func (e *SampleExemplar) Label(name string) string {
	if e == nil {
		return ""
	}
	for _, l := range e.Labels {
		if l.Key == name {
			return l.Value
		}
	}
	return ""
}

// validExpositionTypes are the TYPE keywords the Registry emits.
var validExpositionTypes = map[string]bool{
	"counter": true,
	"gauge":   true,
	"summary": true,
}

// ParseExposition parses Prometheus-text exposition into families,
// validating the grammar as it goes: TYPE before samples, sample names
// matching their family (allowing the summary _sum/_count companions),
// well-formed label sets, parseable values, and well-formed exemplar
// annotations. It returns the families in exposition order.
func ParseExposition(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		families []Family
		cur      *Family
		help     = map[string]string{}
		seen     = map[string]bool{}
		lineNo   int
	)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, h, _ := strings.Cut(rest, " ")
			if !validMetricName(name) {
				return nil, fmt.Errorf("line %d: bad HELP metric name %q", lineNo, name)
			}
			help[name] = h
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || !validExpositionTypes[kind] {
				return nil, fmt.Errorf("line %d: bad TYPE line %q", lineNo, line)
			}
			if !validMetricName(name) {
				return nil, fmt.Errorf("line %d: bad TYPE metric name %q", lineNo, name)
			}
			if seen[name] {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			seen[name] = true
			families = append(families, Family{Name: name, Help: help[name], Type: kind})
			cur = &families[len(families)-1]
		case strings.HasPrefix(line, "#"):
			return nil, fmt.Errorf("line %d: unrecognized comment %q", lineNo, line)
		default:
			smp, err := parseSampleLine(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if cur == nil {
				return nil, fmt.Errorf("line %d: sample %s before any TYPE", lineNo, smp.Name)
			}
			if !sampleBelongs(cur, smp.Name) {
				return nil, fmt.Errorf("line %d: sample %s does not belong to family %s (%s)",
					lineNo, smp.Name, cur.Name, cur.Type)
			}
			if smp.Exemplar != nil && cur.Type != "summary" {
				return nil, fmt.Errorf("line %d: exemplar on non-summary family %s", lineNo, cur.Name)
			}
			cur.Samples = append(cur.Samples, smp)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan exposition: %w", err)
	}
	return families, nil
}

// sampleBelongs reports whether a sample name is legal inside fam.
func sampleBelongs(fam *Family, name string) bool {
	if name == fam.Name {
		return true
	}
	if fam.Type == "summary" {
		return name == fam.Name+"_sum" || name == fam.Name+"_count"
	}
	return false
}

// parseSampleLine parses `name{labels} value` with an optional
// ` # {labels} value` exemplar annotation.
func parseSampleLine(line string) (Sample, error) {
	var smp Sample
	body := line
	// Split off the exemplar annotation first: " # {" cannot occur
	// inside a sample body written by this package (the sample value
	// follows the label set, and no metric here puts "# {" in a label
	// value).
	if i := strings.Index(line, " # {"); i >= 0 {
		exText := line[i+3:]
		body = line[:i]
		ex, err := parseExemplar(exText)
		if err != nil {
			return smp, err
		}
		smp.Exemplar = &ex
	}
	nameEnd := strings.IndexAny(body, "{ ")
	if nameEnd < 0 {
		return smp, fmt.Errorf("malformed sample line %q", line)
	}
	smp.Name = body[:nameEnd]
	if !validMetricName(smp.Name) {
		return smp, fmt.Errorf("bad sample name %q", smp.Name)
	}
	rest := body[nameEnd:]
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return smp, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabelSet(rest[1:end])
		if err != nil {
			return smp, err
		}
		smp.Labels = labels
		rest = rest[end+1:]
	}
	valText := strings.TrimSpace(rest)
	if valText == "" || strings.ContainsRune(valText, ' ') {
		return smp, fmt.Errorf("malformed value in %q", line)
	}
	v, err := strconv.ParseFloat(valText, 64)
	if err != nil {
		return smp, fmt.Errorf("bad sample value %q: %w", valText, err)
	}
	smp.Value = v
	return smp, nil
}

// parseExemplar parses `{labels} value`.
func parseExemplar(text string) (SampleExemplar, error) {
	var ex SampleExemplar
	if !strings.HasPrefix(text, "{") {
		return ex, fmt.Errorf("malformed exemplar %q", text)
	}
	end := strings.Index(text, "}")
	if end < 0 {
		return ex, fmt.Errorf("unterminated exemplar label set in %q", text)
	}
	labels, err := parseLabelSet(text[1:end])
	if err != nil {
		return ex, err
	}
	ex.Labels = labels
	valText := strings.TrimSpace(text[end+1:])
	v, err := strconv.ParseFloat(valText, 64)
	if err != nil {
		return ex, fmt.Errorf("bad exemplar value %q: %w", valText, err)
	}
	ex.Value = v
	return ex, nil
}

// parseLabelSet parses `k1="v1",k2="v2"` (possibly empty), unescaping
// values.
func parseLabelSet(s string) ([]Attr, error) {
	var labels []Attr
	for s != "" {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, fmt.Errorf("malformed label set at %q", s)
		}
		key := s[:eq]
		if !validMetricName(key) {
			return nil, fmt.Errorf("bad label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		s = s[1:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, fmt.Errorf("bad escape \\%c in label %q", s[i], key)
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		labels = append(labels, Attr{Key: key, Value: b.String()})
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if s != "" {
			return nil, fmt.Errorf("malformed label separator at %q", s)
		}
	}
	return labels, nil
}
