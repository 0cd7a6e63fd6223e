package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test holds the program to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

// TestWorkloadsSmoke runs every workload for under a second, traced,
// and checks the metric contract, the correctness gate and the layer
// counts the paper fixes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up the full serving stack per workload")
	}
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	if got, want := strings.Join(sorted, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg, err := configFor(name, 1, 800*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			cfg.setups = 1
			dir := t.TempDir()
			spans := filepath.Join(dir, "spans.jsonl")
			out, err := execute(context.Background(), cfg, dir, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Fatalf("gate: correct=%v attempted=%d failed=%d diag=%v", out.correct, out.attempted, out.failed, out.diag)
			}
			checkMetrics(t, "end-to-end", out.endToEnd, s.EndToEnd)
			checkMetrics(t, "per-layer", out.perLayer, s.PerLayer)
			if _, err := os.Stat(spans); err != nil {
				t.Errorf("spans not written: %v", err)
			}

			layer := make(map[string]float64)
			for _, m := range out.perLayer {
				layer[m.name] = m.value
			}
			switch name {
			case "cold-derive":
				// Def 2.2 probe counts at ε = 0.2: every answer is one
				// stateless derivation of 17,666 weighted samples and one
				// point query; the instance ships six 4,096-sample frames.
				want := map[string]float64{
					"engine.samples_per_query":          17666,
					"engine.point_queries_per_query":    1,
					"oracle.instance_samples_per_query": 6 * 4096,
				}
				for k, v := range want {
					if layer[k] != v {
						t.Errorf("%s = %v, want %v", k, layer[k], v)
					}
				}
			default:
				if v := layer["gateway.replica_attempts"]; v != 0 {
					t.Errorf("gateway.replica_attempts = %v, want 0", v)
				}
			}
			if name == "churn-batch" {
				if n := out.diag["epochs_published"].(int); n < 1 {
					t.Errorf("epochs published = %d, want >= 1", n)
				}
				if v := layer["gateway.store_serve_ratio"]; v <= 0 {
					t.Errorf("gateway.store_serve_ratio = %v, want > 0", v)
				}
			}

			for _, traced := range []bool{false, true} {
				checkResultLine(t, out, traced)
			}
		})
	}
}

// checkMetrics asserts that got carries exactly the metrics of want,
// with their units, in that order.
func checkMetrics(t *testing.T, kind string, got []metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
	}
	for k := 0; k < len(got) && k < len(want); k++ {
		if got[k].name != want[k].Name || got[k].unit != want[k].Unit {
			t.Errorf("%s metric %d: %s (%s), BENCHMARK.json names %s (%s)",
				kind, k, got[k].name, got[k].unit, want[k].Name, want[k].Unit)
		}
	}
}

// checkResultLine asserts the printed result: the last line is a JSON
// object with exactly the contract's keys.
func checkResultLine(t *testing.T, out *outcome, traced bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := out.print(&buf, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("result line keys: %s", lines[len(lines)-1])
	}
}
