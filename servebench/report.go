package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"

	"lcakp/internal/gateway"
)

// metric is one named, unit-carrying value.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is one workload run: the end-to-end metrics of the untraced
// window, the per-layer metrics of the traced one (trace runs only),
// the correctness gate, and the diagnostics printed beside them.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	endToEnd  []metric
	perLayer  []metric
	diag      map[string]any
}

// answers sums the loops' answers.
func (r *result) answers() int64 {
	var n int64
	for _, l := range r.loops {
		n += l.answers
	}
	return n
}

// latency merges the loops' latencies over the given slices.
func (r *result) latency(slices []int) *histogram {
	h := &histogram{}
	for _, l := range r.loops {
		for _, i := range slices {
			h.merge(&l.sliceHist[i])
		}
	}
	return h
}

// all lists every slice of the window.
func (r *result) all() []int {
	out := make([]int, r.slices)
	for i := range out {
		out[i] = i
	}
	return out
}

// Quiet slices. Every time metric tracks host steal: at 0-2% steal
// hot-cache's per-slice p99 held within a few percent across runs,
// while runs at 10-18% steal read up to 1.5 times higher. So the
// end-to-end metrics are taken over the slices in which the host stole
// at most quietSteal of the CPU time, or, when fewer than minQuiet
// slices were that quiet, over the minQuiet least stolen.
const (
	quietSteal = 0.02
	minQuiet   = 5
)

// quiet returns the quiet slices in window order (every slice when
// steal is unknown).
func (r *result) quiet() []int {
	out := r.all()
	if !r.ticks[0].hostOK || r.slices <= minQuiet {
		return out
	}
	steal := r.perSlice().steals
	sort.SliceStable(out, func(a, b int) bool { return steal[out[a]] < steal[out[b]] })
	n := minQuiet
	for n < len(out) && steal[out[n]] <= quietSteal {
		n++
	}
	out = out[:n]
	sort.Ints(out)
	return out
}

// slices holds one value per slice of the window.
type slices struct {
	rates, costs, heaps, p50s, p99s, steals []float64
}

func (r *result) perSlice() slices {
	var sl slices
	for i := 0; i < r.slices; i++ {
		var answers int64
		for _, l := range r.loops {
			answers += l.perSlice[i]
		}
		h := r.latency([]int{i})
		sl.rates = append(sl.rates, float64(answers)/r.slice.Seconds())
		sl.costs = append(sl.costs, ratio(float64(r.ticks[i+1].cpuNs-r.ticks[i].cpuNs)/1e3, float64(answers)))
		sl.heaps = append(sl.heaps, float64(r.ticks[i+1].liveHeap)/1e6)
		sl.p50s = append(sl.p50s, r.quantileUs(h, 0.50))
		sl.p99s = append(sl.p99s, r.quantileUs(h, 0.99))
		sl.steals = append(sl.steals, stealShare(r.ticks[i], r.ticks[i+1]))
	}
	return sl
}

// endToEnd computes the metrics a user of the stack sees. Throughput,
// CPU cost and the latency quantiles are medians over the quiet slices
// (cold-derive pools its latencies over the whole window instead: a
// slice holds ~100 derivations, too few for a p99, and 10 ms
// derivations hardly feel steal), and churn-batch's publish time is
// the median over the publishes started in them. Live heap, which
// steal does not move, is the median over every slice.
func (r *result) endToEnd() []metric {
	sl, quiet := r.perSlice(), r.quiet()
	pick := func(xs []float64) float64 {
		var out []float64
		for _, i := range quiet {
			out = append(out, xs[i])
		}
		return median(out)
	}
	p50, p99 := pick(sl.p50s), pick(sl.p99s)
	if r.cfg.pooledLatency {
		h := r.latency(r.all())
		p50, p99 = r.quantileUs(h, 0.50), r.quantileUs(h, 0.99)
	}
	return []metric{
		{"setup_s", "s", median(r.setupS)},
		{"answers_per_s", "1/s", pick(sl.rates)},
		{"latency_p50_us", "us", p50},
		{"latency_p99_us", "us", p99},
		{"cpu_us_per_answer", "us", pick(sl.costs)},
		{"heap_mb", "MB", median(sl.heaps)},
		{"epoch_publish_ms", "ms", median(r.quietPublishes(quiet))},
	}
}

// quietPublishes returns the publish times of the publishes started in
// the quiet slices, or all of them when none started in the window
// (hot-cache and cold-derive publish after it).
func (r *result) quietPublishes(quiet []int) []float64 {
	in := make(map[int]bool, len(quiet))
	for _, i := range quiet {
		in[i] = true
	}
	var out []float64
	for k, at := range r.publishAt {
		if d := at.Sub(r.before.at); d >= 0 && in[int(d/r.slice)] {
			out = append(out, r.publishMs[k])
		}
	}
	if len(out) == 0 {
		return r.publishMs
	}
	return out
}

// quantileUs is a latency quantile in µs. A quantile that falls among
// failed requests reads as the whole window: a failure exceeds every
// limit.
func (r *result) quantileUs(h *histogram, q float64) float64 {
	ns, ok := h.quantile(q)
	if !ok {
		return float64(r.cfg.window) / 1e3
	}
	return ns / 1e3
}

// perLayer computes the traced run's per-layer metrics. A layer that
// did no work in the window reads 0.
func (r *result) perLayer() []metric {
	p := r.probe
	answers := float64(r.answers())
	var clientNs int64
	for _, l := range r.loops {
		clientNs += l.latencyNs
	}
	samplesPerQuery := ratio(float64(r.engine.Samples), float64(r.engine.Queries))
	pointsPerQuery := ratio(float64(r.engine.PointQueries), float64(r.engine.Queries))
	draws := float64(r.sampleFrames * samplePrefetch)
	deriveUs := ratio(float64(p.coreNs), float64(p.coreCalls)) / 1e3
	selfUs := 0.0
	if p.coreCalls > 0 {
		selfUs = deriveUs - (samplesPerQuery*r.costs.sampleNs+pointsPerQuery*r.costs.pointNs)/1e3
	}
	warmUseful := 0.0
	if r.warmed > 0 {
		warmUseful = math.Min(1, float64(gateway.DefaultCacheSize)/float64(r.warmed))
	}
	gcPause := float64(r.after.mem.PauseTotalNs-r.before.mem.PauseTotalNs) / 1e6
	return []metric{
		{"cluster.requests", "count", float64(r.requests)},
		{"cluster.wire_us", "us", ratio(float64(clientNs-p.gatewayNs), float64(r.requests)) / 1e3},
		{"gateway.busy_us", "us", ratio(float64(p.gatewayNs), float64(p.gatewayCalls)) / 1e3},
		{"gateway.cache_hit_ratio", "ratio", r.gw.CacheHitRate()},
		{"gateway.store_serve_ratio", "ratio", ratio(float64(r.gw.StoreServes), answers)},
		{"gateway.replica_attempts", "count", float64(r.gw.Attempts)},
		{"gateway.retries", "count", float64(r.gw.Retries + r.gw.Failovers + r.gw.Hedges)},
		{"gateway.fetch_p50_us", "us", float64(r.fetchP50) / 1e3},
		{"gateway.warm_s", "s", r.warm.Seconds()},
		{"gateway.warm_useful_ratio", "ratio", warmUseful},
		{"engine.queries", "count", float64(r.engine.Queries)},
		{"engine.wall_us", "us", ratio(float64(r.engine.Wall), float64(r.engine.Queries)) / 1e3},
		{"engine.tenant_derivations", "count", float64(r.derivations)},
		{"engine.samples_per_query", "count", samplesPerQuery},
		{"engine.point_queries_per_query", "count", pointsPerQuery},
		{"core.derive_us", "us", deriveUs},
		{"core.self_us", "us", selfUs},
		{"oracle.samples", "count", float64(r.engine.Samples)},
		{"oracle.sample_ns", "ns", r.costs.sampleNs},
		{"oracle.instance_samples_per_query", "count", ratio(draws, float64(r.engine.Queries))},
		{"oracle.instance_sample_ns", "ns", r.costs.drawNs},
		{"oracle.sample_use_ratio", "ratio", ratio(float64(r.engine.Samples), draws)},
		{"store.materialize_ms", "ms", median(r.materializeMs)},
		{"store.put_ms", "ms", median(r.putMs)},
		{"store.lookups", "count", float64(r.store.Lookups)},
		{"store.hit_ratio", "ratio", ratio(float64(r.store.Hits), float64(r.store.Lookups))},
		{"store.opens", "count", float64(r.store.Opens)},
		{"store.resident", "count", float64(r.resident)},
		{"epoch.seal_ms", "ms", median(r.sealMs)},
		{"epoch.retained", "count", float64(r.retained)},
		{"go.gc_cycles", "count", float64(r.after.mem.NumGC - r.before.mem.NumGC)},
		{"go.gc_pause_ms", "ms", gcPause},
		{"go.alloc_bytes_per_answer", "B", ratio(float64(r.after.mem.TotalAlloc-r.before.mem.TotalAlloc), answers)},
	}
}

// beyondP99 is the fewest samples beyond the p99 of any latency group
// the reported p99 is taken from: each quiet slice, or the window.
func (r *result) beyondP99() int64 {
	if r.cfg.pooledLatency {
		return r.latency(r.all()).beyond(0.99)
	}
	least := int64(-1)
	for _, i := range r.quiet() {
		if n := r.latency([]int{i}).beyond(0.99); least < 0 || n < least {
			least = n
		}
	}
	return least
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gate applies the correctness gate to one window: every request
// answered, and every answer equal to the reference — bit for bit,
// except where the workload states a disagreement ceiling.
func (r *result) gate(in *inputs) (ok bool, diag map[string]any) {
	var requests, failed, checked, bad int64
	var errs []string
	conns := make([]map[string]any, 0, len(r.loops))
	for t, l := range r.loops {
		requests += l.requests
		failed += l.failed
		checked += l.answers
		bad += l.mismatches
		c := map[string]any{"tenant": in.tenants[t].String(), "attempted": l.requests,
			"succeeded": l.requests - l.failed, "failed": l.failed, "answers": l.answers}
		if l.err != nil {
			c["error"] = l.err.Error()
			errs = append(errs, l.err.Error())
		}
		conns = append(conns, c)
	}
	checked += r.warmAnswers
	bad += r.warmMismatches
	rate := ratio(float64(bad), float64(checked))
	sl := r.perSlice()
	ok = failed == 0 && r.badProbes == 0 && bad <= r.cfg.allowedDisagreements(checked)
	diag = map[string]any{
		"slice_answers_per_s": sl.rates,
		"slice_p50_us":        sl.p50s,
		"slice_p99_us":        sl.p99s,
		"slice_steal_share":   sl.steals,
		"slice_cpu_us":        sl.costs,
		"publish_ms":          r.publishMs,
		"connections":         conns,
		"attempted":           requests,
		"failed":              failed,
		"latency_samples":     r.latency(r.all()).total,
		"quiet_slices":        r.quiet(),
		"beyond_p99":          r.beyondP99(),
		"answers_checked":     checked,
		"disagreements":       bad,
		"disagreement_rate":   rate,
		"disagreement_max":    r.cfg.maxDisagreement,
		"probe_mismatches":    r.badProbes,
		"epochs_published":    r.published,
		"steal_share":         stealShare(r.ticks[0], r.ticks[r.slices]),
		"heap_mb_end":         float64(r.heapBytes) / 1e6,
	}
	if len(errs) > 0 {
		diag["errors"] = errs
	}
	return ok, diag
}

// environment records what a reader needs to judge whether two runs are
// comparable: the fields lcabench -json writes.
func environment() map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"git_commit": gitCommit(),
	}
}

// gitCommit is stamped by the build script (-ldflags -X) when the
// checkout is a git work tree; the go tool's own vcs stamp is the
// fallback.
var commit = ""

func gitCommit() string {
	if commit != "" {
		return commit
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

// metricsObject renders metrics as the result line's "metrics" object.
func metricsObject(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// print writes the diagnostics line, then the result line, which is the
// last line of standard output.
func (o *outcome) print(w io.Writer, traced bool) error {
	metrics := o.endToEnd
	if traced {
		metrics = o.perLayer
	}
	diag, err := json.Marshal(map[string]any{"servebench": o.diag})
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   o.correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metricsObject(metrics),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", diag, res)
	return err
}

// overhead reports the traced window's end-to-end values beside the
// untraced ones: the cost of the probes.
func overhead(plain, traced []metric) map[string]any {
	out := make(map[string]any, len(plain))
	for k, m := range plain {
		t := traced[k]
		out[m.name] = map[string]any{"untraced": m.value, "traced": t.value,
			"traced_minus_untraced": t.value - m.value}
	}
	return out
}
