package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/gateway"
	"lcakp/internal/store"
)

// result is what one measured window (with its set-ups and publishes)
// observed.
type result struct {
	cfg       config
	setupS    []float64
	loops     []*loop
	slices    int
	slice     time.Duration
	ticks     []tick // process state at each slice boundary
	before    sample
	after     sample
	heapBytes uint64 // live heap after a forced GC at the end of the window
	publishMs []float64
	publishAt []time.Time
	published int
	badProbes int
	// Answers checked during the warm-up, and how many disagreed.
	warmAnswers, warmMismatches int64

	// Layer counters over the window (after minus before).
	requests      int64
	gw            gateway.Metrics
	fetchP50      time.Duration
	engine        engine.Totals
	derivations   int64
	store         store.Stats
	resident      int
	retained      int
	probe         probeDelta
	costs         oracleCosts
	sampleFrames  int64 // sample frames the instance server answered
	warm          time.Duration
	warmed        int
	materializeMs []float64
	putMs         []float64
	sealMs        []float64
}

// measure sets the stack up setups times (timing each after a forced
// GC), warms it, drives the window, and publishes the post-window
// epochs. pr is nil for an untraced run.
func measure(ctx context.Context, cfg config, in *inputs, dir string, setups int, pr *probes) (_ *result, err error) {
	r := &result{cfg: cfg}
	var s *stack
	defer func() {
		if s != nil {
			err = errors.Join(err, s.close())
		}
		err = errors.Join(err, os.RemoveAll(dir))
	}()
	for k := 0; k < setups; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		if s, err = startStack(ctx, cfg, in, dir, pr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}

	clients := make([]*cluster.LCAClient, len(in.tenants))
	for t := range clients {
		if clients[t], err = cluster.DialLCAContext(ctx, s.front.Addr(), 0); err != nil {
			return nil, err
		}
		defer clients[t].Close()
	}
	// Warm-up, outside the window: every hot item resident, every
	// tenant engine derived, connections and pools open.
	for t := range clients {
		warm := batchAsk(in, clients[t], cfg.batch)
		if cfg.batch == 1 {
			warm = pointAsk(in, clients[t], t, in.warm[t])
		}
		for k := 0; k < len(in.warm[t])/cfg.batch; k++ {
			n, bad, err := warm(ctx, k)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			r.warmAnswers += int64(n)
			r.warmMismatches += int64(bad)
		}
	}

	if pr != nil {
		if r.costs, err = measureOracleCosts(ctx, s.oracle, s.instance.Addr()); err != nil {
			return nil, fmt.Errorf("oracle costs: %w", err)
		}
	}

	runtime.GC()
	e0, d0 := s.engineTotals(in)
	g0, st0, q0 := s.gw.Metrics(), storeStats(s), s.front.Stats().RequestsServed
	f0 := s.instance.Stats().RequestsServed
	p0 := snapshotProbes(pr)
	r.before = takeSample()
	r.slices, r.slice = cfg.slices()
	deadline := r.before.at.Add(time.Duration(r.slices) * r.slice)

	var wg sync.WaitGroup
	r.loops = make([]*loop, len(clients))
	for t := range clients {
		a := batchAsk(in, clients[t], cfg.batch)
		if cfg.batch == 1 {
			a = pointAsk(in, clients[t], t, in.streams[t])
		}
		wg.Add(1)
		go func(t int, a ask) {
			defer wg.Done()
			r.loops[t] = closedLoop(ctx, r.before.at, r.slices, r.slice, a)
		}(t, a)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.ticks = sampleSlices(r.before.at, r.slices, r.slice)
	}()
	var writerErr error
	if cfg.churnEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writerErr = churn(ctx, s, in, deadline)
		}()
	}
	wg.Wait()
	r.after = takeSample()
	if writerErr != nil {
		return nil, fmt.Errorf("writer: %w", writerErr)
	}

	e1, derivations := s.engineTotals(in)
	g1, st1 := s.gw.Metrics(), storeStats(s)
	r.requests = s.front.Stats().RequestsServed - q0
	// Every instance frame in the window is a sample frame, a point
	// query, or the info fetch of a newly dialed replica engine.
	r.sampleFrames = s.instance.Stats().RequestsServed - f0 - (e1.PointQueries - e0.PointQueries) - (derivations - d0)
	r.gw = gatewayDelta(g0, g1)
	r.fetchP50 = s.gw.Latency().P50
	r.engine = engine.Totals{
		Queries:      e1.Queries - e0.Queries,
		PointQueries: e1.PointQueries - e0.PointQueries,
		Samples:      e1.Samples - e0.Samples,
		Wall:         e1.Wall - e0.Wall,
	}
	r.derivations = derivations
	r.store = store.Stats{Lookups: st1.Lookups - st0.Lookups, Hits: st1.Hits - st0.Hits, Opens: st1.Opens - st0.Opens}
	r.resident = st1.Resident
	r.probe = snapshotProbes(pr).minus(p0)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapBytes = mem.HeapAlloc

	// Post-window publishes: each epoch must be served, bit for bit, by
	// the time publish returns.
	if cfg.churnEvery == 0 {
		for e := range in.epochs {
			runtime.GC()
			ep, err := s.publish(ctx, in.tenants[0], in.epochs[e].muts)
			if err != nil {
				return nil, fmt.Errorf("publish: %w", err)
			}
			got, served, err := clients[0].InSolutionBatchEpoch(ctx, engine.EpochCurrent, in.probe)
			if err != nil {
				return nil, fmt.Errorf("probe epoch %d: %w", ep, err)
			}
			if served != ep {
				return nil, fmt.Errorf("probe: gateway serves epoch %d after publishing %d", served, ep)
			}
			bad, err := check(in.refAt(served), in.probe, got)
			if err != nil {
				return nil, err
			}
			r.badProbes += bad
		}
	}
	r.publishMs, r.publishAt, r.published = s.publishMs, s.publishAt, len(s.publishMs)
	r.retained = len(s.mgrs[in.tenants[0]].Retained())
	r.warm, r.warmed = s.warm, s.warmed
	r.materializeMs, r.putMs, r.sealMs = s.materializeMs, s.putMs, s.sealMs
	return r, nil
}

// pointAsk sends one point frame per request. Tenant 0 uses the oldest
// framing (untenanted, epoch-less); other tenants send tenanted frames
// pinned to epoch 0, the newest framing.
func pointAsk(in *inputs, c *cluster.LCAClient, t int, stream []int) ask {
	ref, id := in.ref[t], in.tenants[t]
	return func(ctx context.Context, k int) (int, int, error) {
		item := stream[k%len(stream)]
		var got bool
		var err error
		if t == 0 {
			got, err = c.InSolution(ctx, item)
		} else {
			var served engine.EpochID
			got, served, err = c.InSolutionEpochTenant(ctx, id, 0, item)
			if err == nil && served != 0 {
				err = fmt.Errorf("pinned epoch 0, served %d", served)
			}
		}
		if err != nil {
			return 0, 0, err
		}
		if got != ref.has(item) {
			return 1, 1, nil
		}
		return 1, 0, nil
	}
}

// batchAsk sends batches of the default tenant's stream at the current
// epoch and checks each against the reference of the epoch the server
// echoes.
func batchAsk(in *inputs, c *cluster.LCAClient, batch int) ask {
	stream := in.streams[0]
	var last engine.EpochID
	return func(ctx context.Context, k int) (int, int, error) {
		off := (k * batch) % (len(stream) - batch + 1)
		items := stream[off : off+batch]
		got, served, err := c.InSolutionBatchEpoch(ctx, engine.EpochCurrent, items)
		if err != nil {
			return 0, 0, err
		}
		if served < last {
			return 0, 0, fmt.Errorf("served epoch went back from %d to %d", last, served)
		}
		last = served
		bad, err := check(in.refAt(served), items, got)
		return len(items), bad, err
	}
}

// churn is the churn-batch writer: every churnEvery it publishes the
// next epoch of the default tenant, until the deadline.
func churn(ctx context.Context, s *stack, in *inputs, deadline time.Time) error {
	tick := time.NewTicker(s.cfg.churnEvery)
	defer tick.Stop()
	stop := time.NewTimer(time.Until(deadline))
	defer stop.Stop()
	for e := range in.epochs {
		select {
		case <-tick.C:
		case <-stop.C:
			return nil
		}
		if !time.Now().Before(deadline) {
			return nil
		}
		if _, err := s.publish(ctx, in.tenants[0], in.epochs[e].muts); err != nil {
			return err
		}
	}
	return nil
}

func storeStats(s *stack) store.Stats {
	if s.st == nil {
		return store.Stats{}
	}
	return s.st.Stats()
}

// gatewayDelta returns the counters the per-layer metrics use, over the
// window.
func gatewayDelta(a, b gateway.Metrics) gateway.Metrics {
	return gateway.Metrics{
		CacheHits:   b.CacheHits - a.CacheHits,
		CacheMisses: b.CacheMisses - a.CacheMisses,
		StoreServes: b.StoreServes - a.StoreServes,
		Attempts:    b.Attempts - a.Attempts,
		Retries:     b.Retries - a.Retries,
		Failovers:   b.Failovers - a.Failovers,
		Hedges:      b.Hedges - a.Hedges,
		Errors:      b.Errors - a.Errors,
	}
}

// probeDelta is the probes' counters over the window.
type probeDelta struct {
	gatewayCalls, gatewayNs int64
	coreCalls, coreNs       int64
}

func snapshotProbes(pr *probes) probeDelta {
	if pr == nil {
		return probeDelta{}
	}
	return probeDelta{
		gatewayCalls: pr.gateway.calls.Load(), gatewayNs: pr.gateway.ns.Load(),
		coreCalls: pr.core.calls.Load(), coreNs: pr.core.ns.Load(),
	}
}

func (b probeDelta) minus(a probeDelta) probeDelta {
	return probeDelta{
		gatewayCalls: b.gatewayCalls - a.gatewayCalls, gatewayNs: b.gatewayNs - a.gatewayNs,
		coreCalls: b.coreCalls - a.coreCalls, coreNs: b.coreNs - a.coreNs,
	}
}
