package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: values (nanoseconds) below subBucketCount
// get exact buckets; above, each power-of-two range is split into
// subBucketCount log-linear sub-buckets, bounding the relative
// quantile error at 1/subBucketCount (~6%) across the full int64
// range — the HDR-histogram layout, sized for latencies from 1ns to
// ~292 years.
const (
	subBucketBits  = 4
	subBucketCount = 1 << subBucketBits // 16
	// numBuckets covers exponents subBucketBits..62 at subBucketCount
	// buckets each (62 is the leading-bit position of MaxInt64, the
	// largest representable observation), plus the subBucketCount exact
	// low buckets.
	numBuckets = (62 - subBucketBits + 1 + 1) * subBucketCount
)

// Histogram is a concurrent log-bucketed latency histogram: lock-free
// recording (a handful of atomic adds per observation, no allocation),
// quantile readouts on demand. The zero value is ready to use; a
// Histogram must not be copied after first use.
//
// Recording and reading race benignly: quantiles computed mid-stream
// reflect some subset of concurrent observations, but count, sum, and
// max are each individually exact once writers quiesce.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
	counts [numBuckets]atomic.Int64
	// exemplars holds, per bucket, the latest traced observation that
	// landed there: a lock-free atomic pointer swap on write, so the
	// p99 bucket always names a concrete replayable trace. Untraced
	// observations never touch it.
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// Exemplar links one recorded observation back to the trace that
// produced it — the OpenMetrics exemplar attached to a histogram
// bucket. Tenant labels which tenant's query it was ("" when untenanted).
type Exemplar struct {
	Trace  TraceID
	Tenant string
	Value  time.Duration
}

// Observe records one latency. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveExemplar records one latency and, when trace is nonzero,
// swaps the observation in as its bucket's exemplar. The swap is one
// atomic pointer store — concurrent observers race benignly; some
// traced observation for the bucket wins. Only traced observations
// (fetch/decision paths) pay the exemplar allocation; the cached hot
// path calls plain Observe and stays allocation-free.
func (h *Histogram) ObserveExemplar(d time.Duration, trace TraceID, tenant string) {
	h.Observe(d)
	if trace == 0 {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	ex := &Exemplar{Trace: trace, Tenant: tenant, Value: time.Duration(v)} //lint:alloc one exemplar box per traced observation; traced queries opt into this cost
	h.exemplars[bucketIndex(v)].Store(ex)
}

// ExemplarNear returns the exemplar closest to the q-quantile bucket —
// the bucket itself if it holds one, else the nearest lower bucket,
// else the nearest higher. ok is false when no traced observation has
// been recorded at all.
func (h *Histogram) ExemplarNear(q float64) (Exemplar, bool) {
	idx := h.quantileBucket(q)
	if idx < 0 {
		return Exemplar{}, false
	}
	for i := idx; i >= 0; i-- {
		if ex := h.exemplars[i].Load(); ex != nil {
			return *ex, true
		}
	}
	for i := idx + 1; i < numBuckets; i++ {
		if ex := h.exemplars[i].Load(); ex != nil {
			return *ex, true
		}
	}
	return Exemplar{}, false
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns an upper bound on the q-quantile (q in [0, 1]) of
// the recorded distribution, within one sub-bucket (~6% relative
// error). It returns 0 when nothing has been recorded. Quantile is
// monotone in q by construction: larger q can only land in the same
// or a later bucket.
func (h *Histogram) Quantile(q float64) time.Duration {
	if i := h.quantileBucket(q); i >= 0 {
		return time.Duration(bucketUpper(i))
	}
	return 0
}

// quantileBucket returns the bucket index holding the q-quantile
// observation, or -1 when the histogram is empty.
func (h *Histogram) quantileBucket(q float64) int {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var counts [numBuckets]int64
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	if total == 0 {
		return -1
	}
	// rank is the 1-based index of the q-quantile observation.
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := range counts {
		seen += counts[i]
		if seen >= rank {
			return i
		}
	}
	return numBuckets - 1
}

// Snapshot is a point-in-time readout of a histogram.
type Snapshot struct {
	// Count is the number of observations and Sum their exact total.
	Count int64
	Sum   time.Duration
	// P50, P95, and P99 are bucket-upper-bound quantiles; Max is exact.
	P50, P95, P99, Max time.Duration
}

// Snapshot returns the histogram's current readout.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

func (h *Histogram) kind() string { return "summary" }

// expose writes the histogram as a Prometheus summary (quantiles in
// seconds) plus a companion <name>_max gauge — plain text format
// 0.0.4, no exemplar annotations. Exemplars are not legal on summary
// quantiles in any exposition format (the classic text parser allows
// only a timestamp after the value, and OpenMetrics restricts
// exemplars to counters and histogram buckets), so they live solely in
// the package's extended exposition (exposeExemplars), served on
// /debug/exemplars.
func (h *Histogram) expose(w io.Writer, name string) error {
	return h.exposeWith(w, name, false)
}

// exposeExemplars writes the same summary with the package's exemplar
// annotation (`# {trace_id="...",tenant="..."} v`) appended to any
// quantile line whose bucket neighborhood holds a traced observation,
// linking a tail reading to a replayable trace. This extended format
// is NOT scrapeable Prometheus text — it must never be served on
// /metrics.
func (h *Histogram) exposeExemplars(w io.Writer, name string) error {
	return h.exposeWith(w, name, true)
}

func (h *Histogram) exposeWith(w io.Writer, name string, exemplars bool) error {
	s := h.Snapshot()
	for _, qv := range [...]struct {
		q  string
		qf float64
		v  time.Duration
	}{{"0.5", 0.50, s.P50}, {"0.95", 0.95, s.P95}, {"0.99", 0.99, s.P99}} {
		suffix := ""
		if exemplars {
			if ex, ok := h.ExemplarNear(qv.qf); ok {
				suffix = exemplarSuffix(ex)
			}
		}
		if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s%s\n", name, qv.q, formatFloat(qv.v.Seconds()), suffix); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(s.Sum.Seconds())); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count %d\n", name, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s_max gauge\n%s_max %s\n", name, name, formatFloat(s.Max.Seconds())); err != nil {
		return err
	}
	return nil
}

// exemplarSuffix renders the OpenMetrics-style exemplar annotation the
// extended exposition appends to a sample line:
// ` # {trace_id="...",tenant="..."} <seconds>`.
func exemplarSuffix(ex Exemplar) string {
	labels := `trace_id="` + ex.Trace.String() + `"`
	if ex.Tenant != "" {
		labels += `,tenant="` + escapeLabelValue(ex.Tenant) + `"`
	}
	return " # {" + labels + "} " + formatFloat(ex.Value.Seconds())
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBucketCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of the leading one, >= subBucketBits
	sub := (u >> uint(exp-subBucketBits)) & (subBucketCount - 1)
	return (exp-subBucketBits+1)<<subBucketBits + int(sub)
}

// bucketUpper returns the inclusive upper bound of bucket i — the
// conservative representative Quantile reports.
func bucketUpper(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	block := i >> subBucketBits // >= 1
	exp := uint(block + subBucketBits - 1)
	sub := uint64(i & (subBucketCount - 1))
	width := uint64(1) << (exp - subBucketBits)
	upper := uint64(1)<<exp + sub*width + width - 1
	const maxInt64 = uint64(^uint64(0) >> 1)
	if upper > maxInt64 { // the topmost buckets straddle the int64 limit
		return int64(maxInt64)
	}
	return int64(upper)
}
