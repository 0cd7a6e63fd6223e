package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// subBits sets the latency histogram's resolution: 2^subBits buckets
// per power of two, each under 1.6% wide.
const subBits = 6

// histogram is a log-bucketed latency histogram. It costs no memory
// per sample, and quantile interpolates inside a bucket.
type histogram struct {
	counts [64 << subBits]uint32
	total  int64
	// failed requests rank above every latency.
	failed int64
}

func bucketOf(ns int64) int {
	u := uint64(ns)
	if u < 1<<subBits {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	sub := (u >> uint(exp-subBits)) & (1<<subBits - 1)
	return (exp-subBits+1)<<subBits + int(sub)
}

// bucketBounds returns bucket i's lower bound and width in ns.
func bucketBounds(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	exp := uint(i>>subBits + subBits - 1)
	w := uint64(1) << (exp - subBits)
	return float64(uint64(1)<<exp + uint64(i&(1<<subBits-1))*w), float64(w)
}

func (h *histogram) record(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.total++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.failed += o.failed
}

// quantile returns the q-quantile in ns; ok is false when it falls
// among the failed requests.
func (h *histogram) quantile(q float64) (ns float64, ok bool) {
	n := h.total + h.failed
	rank := q * float64(n)
	if n == 0 || rank > float64(h.total) {
		return 0, false
	}
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, w := bucketBounds(i)
			return lo + w*(rank-seen)/float64(c), true
		}
		seen += float64(c)
	}
	return 0, false
}

// beyond returns how many samples lie above the q-quantile.
func (h *histogram) beyond(q float64) int64 {
	n := h.total + h.failed
	return n - int64(math.Ceil(q*float64(n)))
}

// loop is one closed-loop connection's tally over the window.
type loop struct {
	requests   int64
	failed     int64
	answers    int64
	mismatches int64
	latencyNs  int64
	// perSlice counts the answers completed in each slice of the window,
	// and sliceHist their latencies; a request completing after the
	// deadline counts in the last slice.
	perSlice  []int64
	sliceHist []histogram
	err       error
}

// ask sends request k and checks its answers against the reference,
// returning how many answers it carried and how many disagreed.
type ask func(ctx context.Context, k int) (answers, mismatches int, err error)

// closedLoop sends requests back to back over the window split into
// slices of equal length: each request leaves when the previous answer
// has arrived. A failed request ends the loop (it counts as exceeding
// every latency limit).
func closedLoop(ctx context.Context, start time.Time, slices int, slice time.Duration, send ask) *loop {
	l := &loop{perSlice: make([]int64, slices), sliceHist: make([]histogram, slices)}
	deadline := start.Add(time.Duration(slices) * slice)
	for k := 0; ; k++ {
		sent := time.Now()
		if !sent.Before(deadline) {
			return l
		}
		n, bad, err := send(ctx, k)
		done := time.Now()
		d := done.Sub(sent)
		i := int(done.Sub(start) / slice)
		if i >= slices {
			i = slices - 1
		}
		l.requests++
		if err != nil {
			l.failed++
			l.sliceHist[i].failed++
			l.err = err
			return l
		}
		l.sliceHist[i].record(d)
		l.latencyNs += int64(d)
		l.answers += int64(n)
		l.mismatches += int64(bad)
		l.perSlice[i] += int64(n)
	}
}

// tick is the process state read at a slice boundary.
type tick struct {
	cpuNs int64
	// liveHeap is the heap the most recent GC cycle found live.
	liveHeap uint64
	// steal and hostAll are the host's steal and total CPU ticks;
	// hostOK is false where /proc/stat is unavailable.
	steal, hostAll uint64
	hostOK         bool
}

// sampleSlices reads the process state at every slice boundary of the
// window, the start included.
func sampleSlices(start time.Time, slices int, slice time.Duration) []tick {
	out := make([]tick, 0, slices+1)
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
		metrics.Read(live)
		var heap uint64
		if live[0].Value.Kind() == metrics.KindUint64 {
			heap = live[0].Value.Uint64()
		}
		t := tick{cpuNs: processCPU(), liveHeap: heap}
		t.steal, t.hostAll, t.hostOK = hostCPU()
		out = append(out, t)
	}
	return out
}

// processCPU is the process's user plus system CPU time in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sample is the runtime state read at a window boundary.
type sample struct {
	at  time.Time
	mem runtime.MemStats
}

func takeSample() sample {
	s := sample{at: time.Now()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// hostCPU reads the host's aggregate steal and total CPU ticks from
// /proc/stat; ok is false where that file is unavailable.
func hostCPU() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for k, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if k == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShare is the host's steal share of CPU time between two ticks,
// or -1 when unknown.
func stealShare(a, b tick) float64 {
	if !a.hostOK || !b.hostOK || b.hostAll <= a.hostAll {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.hostAll-a.hostAll)
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// check compares served answers with the reference at items.
func check(ref answerSet, items []int, got []bool) (int, error) {
	if ref == nil {
		return 0, fmt.Errorf("no reference for the served epoch")
	}
	if len(got) != len(items) {
		return 0, fmt.Errorf("%d answers for %d items", len(got), len(items))
	}
	bad := 0
	for k, i := range items {
		if got[k] != ref.has(i) {
			bad++
		}
	}
	return bad, nil
}
