package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/gateway"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// probes are the traced run's per-layer timers and spans. They live in
// the benchmark and wrap the layer boundaries the program lets a
// caller wrap: the replicas' engine.Querier and the gateway's Backend.
// The oracle layer is not wrapped: the module's rawwrap lint forbids
// oracle.Access wrappers outside the engine chain, whose only counting
// middleware the replica engines already carry. Oracle calls are
// counted from the program's own counters instead (engine Totals on
// the replicas, served frames on the instance server), and their cost
// is timed in isolation before the window (oracleCosts).
type probes struct {
	// core times each derivation of a stateless replica engine.
	core busyProbe
	// gateway times every call into the gateway's Backend.
	gateway busyProbe
	spans   *spanLog
}

func newProbes() *probes { return &probes{spans: newSpanLog(spanCapacity)} }

// busyProbe accumulates the time spent inside one layer.
type busyProbe struct {
	calls, ns atomic.Int64
}

func (p *busyProbe) add(d time.Duration) {
	p.calls.Add(1)
	p.ns.Add(int64(d))
}

// samplePrefetch is the sample frame the replicas' remote accesses ask
// the instance server for: the cluster default, named so the instance's
// draws can be counted as frames times this size.
const samplePrefetch = 4096

// oracleCosts are the oracle layer's per-call costs, timed on the
// stack's own oracles before a traced window, one caller at a time.
type oracleCosts struct {
	// drawNs is one weighted draw of the instance server's oracle.
	drawNs float64
	// sampleNs and pointNs are one Sample and one QueryItem of a
	// replica's remote access (a sample's share of its frame's round
	// trip included).
	sampleNs, pointNs float64
}

// Calibration sizes: enough calls that each mean is stable to a few
// percent, few enough to take well under a second.
const (
	calibrationDraws  = 1 << 18
	calibrationFrames = 16
	calibrationPoints = 512
)

// measureOracleCosts times the instance's oracle directly and a fresh
// remote access to the instance server over the wire.
func measureOracleCosts(ctx context.Context, instance oracle.Access, addr string) (oracleCosts, error) {
	var c oracleCosts
	src := rng.New(1).Derive("servebench", "calibrate")
	start := time.Now()
	for k := 0; k < calibrationDraws; k++ {
		if _, _, err := instance.Sample(ctx, src); err != nil {
			return c, err
		}
	}
	c.drawNs = float64(time.Since(start)) / calibrationDraws

	remote, err := cluster.DialInstanceContext(ctx, addr, 0, samplePrefetch)
	if err != nil {
		return c, err
	}
	defer remote.Close()
	start = time.Now()
	for k := 0; k < calibrationFrames*samplePrefetch; k++ {
		if _, _, err := remote.Sample(ctx, src); err != nil {
			return c, err
		}
	}
	c.sampleNs = float64(time.Since(start)) / (calibrationFrames * samplePrefetch)
	start = time.Now()
	for k := 0; k < calibrationPoints; k++ {
		if _, err := remote.QueryItem(ctx, k); err != nil {
			return c, err
		}
	}
	c.pointNs = float64(time.Since(start)) / calibrationPoints
	return c, nil
}

// probedQuerier is an engine.Querier wrapper around a replica's LCA:
// each call is one full derivation.
type probedQuerier struct {
	q  engine.Querier
	pr *probes
}

func (q probedQuerier) Query(ctx context.Context, i int) (bool, error) {
	start := time.Now()
	in, err := q.q.Query(ctx, i)
	q.pr.observe(&q.pr.core, "core.derive", start)
	return in, err
}

func (q probedQuerier) QueryBatch(ctx context.Context, indices []int) ([]bool, error) {
	start := time.Now()
	answers, err := q.q.QueryBatch(ctx, indices)
	q.pr.observe(&q.pr.core, "core.derive", start)
	return answers, err
}

// observe charges the time since start to a layer and records its span.
func (pr *probes) observe(p *busyProbe, name string, start time.Time) {
	d := time.Since(start)
	p.add(d)
	pr.spans.add(pr.spans.newID(), 0, name, start, d)
}

// gatewayProbe mounts the gateway on the query server through the same
// seams the gateway implements itself (Backend, TenantBackend,
// EpochBackend), timing every call into it.
type gatewayProbe struct {
	gw *gateway.Gateway
	pr *probes
}

var (
	_ cluster.Backend       = (*gatewayProbe)(nil)
	_ cluster.TenantBackend = (*gatewayProbe)(nil)
	_ cluster.EpochBackend  = (*gatewayProbe)(nil)
)

func (g *gatewayProbe) Resolve(ctx context.Context, q cluster.TenantQuery) (cluster.Backend, error) {
	start := time.Now()
	b, err := g.gw.Resolve(ctx, q)
	if err != nil {
		return nil, err
	}
	return timedBackend{b: b, pr: g.pr, resolve: time.Since(start)}, nil
}

func (g *gatewayProbe) ResolveEpoch(ctx context.Context, q cluster.TenantQuery) (cluster.Backend, engine.EpochID, error) {
	start := time.Now()
	b, ep, err := g.gw.ResolveEpoch(ctx, q)
	if err != nil {
		return nil, 0, err
	}
	return timedBackend{b: b, pr: g.pr, resolve: time.Since(start)}, ep, nil
}

func (g *gatewayProbe) InSolution(ctx context.Context, i int) (bool, error) {
	return timedBackend{b: g.gw, pr: g.pr}.InSolution(ctx, i)
}

func (g *gatewayProbe) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	return timedBackend{b: g.gw, pr: g.pr}.InSolutionBatch(ctx, indices)
}

// timedBackend is one resolved gateway Backend; its busy time is the
// resolution plus the call.
type timedBackend struct {
	b       cluster.Backend
	pr      *probes
	resolve time.Duration
}

func (t timedBackend) InSolution(ctx context.Context, i int) (bool, error) {
	start := time.Now()
	in, err := t.b.InSolution(ctx, i)
	t.pr.observe(&t.pr.gateway, "gateway.backend", start.Add(-t.resolve))
	return in, err
}

func (t timedBackend) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	start := time.Now()
	answers, err := t.b.InSolutionBatch(ctx, indices)
	t.pr.observe(&t.pr.gateway, "gateway.backend", start.Add(-t.resolve))
	return answers, err
}

// spanCapacity bounds the spans a traced run keeps in memory; later
// spans are counted as dropped.
const spanCapacity = 1 << 17

// span is one timed call at a layer boundary. A publish is a two-level
// tree (the publish, then its seal, materialize and put); every other
// span is a root. Spans on the far side of a wire hop cannot join the
// client's trace, since the program does not carry the benchmark's IDs.
type span struct {
	// Trace is the root span's ID.
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin  time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (l *spanLog) newID() uint64 { return l.ids.Add(1) }

// add records a finished span; parent 0 makes it a root.
func (l *spanLog) add(id, parent uint64, name string, start time.Time, d time.Duration) {
	trace := id
	if parent != 0 {
		trace = parent
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(l.origin)), DurNs: int64(d)})
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}
