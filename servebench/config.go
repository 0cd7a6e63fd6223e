package main

import (
	"fmt"
	"sort"
	"time"

	"lcakp/internal/rng"
)

// config is one workload's shape. Every field is fixed per workload;
// the seed and the window length come from the command line.
type config struct {
	workload string
	seed     uint64
	window   time.Duration

	n int
	// tenants is the number of tenants served, one client connection
	// each (churn-batch: one reader connection for its one tenant).
	tenants int
	// store mounts an artifact store: artifacts are materialized and
	// the gateway warms from them at set-up, and publishes persist the
	// sealed epoch's artifact.
	store bool
	// setups is how many times a run sets the stack up; setup_s is the
	// median, and the last stack serves the window.
	setups int
	// publishes is the number of epochs published after the window,
	// one at a time (hot-cache, cold-derive); churnEvery instead
	// publishes during the window at that cadence (churn-batch).
	publishes  int
	churnEvery time.Duration
	// batch is the number of items per request: 1 sends point frames.
	batch int
	// hot is the hot-set size per tenant (hot-cache).
	hot int
	// pooledLatency takes the latency quantiles over the whole window
	// instead of per quiet slice.
	pooledLatency bool
	// maxDisagreement is the ceiling on the share of answers that may
	// differ from the reference; 0 demands bit-exact answers.
	maxDisagreement float64
}

// minAllowedDisagreements keeps a nonzero disagreement ceiling from
// failing a short run on chance: at a 0.2% rate, two disagreements in
// a hundred answers are unlucky, not wrong.
const minAllowedDisagreements = 5

// allowedDisagreements is the most answers out of checked that may
// differ from the reference.
func (c config) allowedDisagreements(checked int64) int64 {
	if c.maxDisagreement == 0 {
		return 0
	}
	n := int64(c.maxDisagreement * float64(checked))
	if n < minAllowedDisagreements {
		n = minAllowedDisagreements
	}
	return n
}

// Every workload runs the LCA at ε = 0.2 and publishes epochs of
// swapsPerEpoch profit swaps.
const (
	epsilon       = 0.2
	swapsPerEpoch = 32
)

// The three workloads. See README.md for why each exists.
var workloads = map[string]config{
	"hot-cache": {
		n: 1_000_000, tenants: 2, store: true,
		setups: 3, publishes: 9, batch: 1, hot: 16_384,
	},
	"cold-derive": {
		n: 1_000_000, tenants: 2,
		setups: 11, publishes: 9, batch: 1,
		// Stateless derivations agree with the canonical rule only
		// w.h.p. (Lemma 4.9): 0.1–0.2% of answers differ.
		maxDisagreement: 0.01,
		pooledLatency:   true,
	},
	"churn-batch": {
		n: 200_000, tenants: 1, store: true,
		setups: 11, churnEvery: 250 * time.Millisecond, batch: 64,
	},
}

// workloadNames lists the workloads, sorted.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// configFor returns the named workload's configuration for one run.
func configFor(name string, seed uint64, window time.Duration) (config, error) {
	cfg, ok := workloads[name]
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if window <= 0 {
		return config{}, fmt.Errorf("window must be positive, got %v", window)
	}
	cfg.workload, cfg.seed, cfg.window = name, seed, window
	return cfg, nil
}

// sliceLength is the nominal length of the slices the window is cut
// into: long enough for a p99 with ten samples beyond it on hot-cache
// and churn-batch, short enough that /proc/stat (10 ms ticks on two
// CPUs) tells a quiet slice from one with host steal.
const sliceLength = 500 * time.Millisecond

// slices splits the window into slices of about sliceLength.
func (c config) slices() (int, time.Duration) {
	n := int(c.window.Round(sliceLength) / sliceLength)
	if n < 1 {
		n = 1
	}
	return n, c.window / time.Duration(n)
}

// epochCount is the number of epochs of the default tenant the run may
// publish, and so the number of references prepared: the post-window
// publishes, or one per churn tick of the window plus slack.
func (c config) epochCount() int {
	if c.churnEvery > 0 {
		return int(c.window/c.churnEvery) + 2
	}
	return c.publishes
}

// requests returns one connection's request stream (item indices,
// consumed in order) and its warm-up stream.
func (c config) requests(src *rng.Source) (stream, warm []int) {
	switch {
	case c.hot > 0:
		// Zipf-skewed draws over a hot set that fits the answer cache;
		// the warm-up sweeps the whole hot set so it is resident.
		hot := src.Derive("hot").Perm(c.n)[:c.hot]
		z := rng.NewZipf(c.hot, 1.1)
		draw := src.Derive("draw")
		stream = make([]int, 1<<18)
		for k := range stream {
			stream[k] = hot[z.Draw(draw)-1]
		}
		return stream, append([]int(nil), hot...)
	case c.batch == 1:
		// A seeded permutation: no item repeats, so every answer is a
		// fresh derivation. The stream is sized far beyond what the
		// window can consume (~100 answers/s per connection).
		perm := src.Derive("perm").Perm(c.n)
		const warmups = 4
		need := warmups + int(c.window.Seconds()*2000) + 1000
		if need > c.n {
			need = c.n
		}
		return append([]int(nil), perm[warmups:need]...), append([]int(nil), perm[:warmups]...)
	default:
		// Uniform items, batch after batch.
		draw := src.Derive("draw")
		stream = make([]int, 1<<18)
		for k := range stream {
			stream[k] = draw.Intn(c.n)
		}
		return stream, stream[:100*c.batch]
	}
}
