package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/oracle"
	"lcakp/internal/workload"
)

// testAccess builds oracle access over a generated workload.
func testAccess(t *testing.T, n int) oracle.Access {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: n, Seed: 12})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	return acc
}

// run builds and runs a simulation, failing the test on error.
func run(t *testing.T, cfg Config) Result {
	t.Helper()
	s, err := New(testAccess(t, 500), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	acc := testAccess(t, 50)
	if _, err := New(acc, Config{Replicas: 0, Queries: 1, Params: core.Params{Epsilon: 0.2}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("replicas=0: %v", err)
	}
	if _, err := New(acc, Config{Replicas: 1, Queries: 0, Params: core.Params{Epsilon: 0.2}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("queries=0: %v", err)
	}
	if _, err := New(acc, Config{Replicas: 1, Queries: 1, Params: core.Params{}}); err == nil {
		t.Error("bad LCA params accepted")
	}
}

func TestNoFailuresFullAvailability(t *testing.T) {
	res := run(t, Config{
		Replicas: 3,
		Queries:  120,
		Params:   core.Params{Epsilon: 0.25, Seed: 5},
		Seed:     1,
	})
	if res.Availability != 1 {
		t.Errorf("availability = %v, want 1 without failures", res.Availability)
	}
	if res.Crashes != 0 || res.Restarts != 0 {
		t.Errorf("failure counters nonzero: %d/%d", res.Crashes, res.Restarts)
	}
	if len(res.Records) != 120 {
		t.Errorf("records = %d, want 120", len(res.Records))
	}
	served := 0
	for _, c := range res.PerReplicaServed {
		served += c
	}
	if served != 120 {
		t.Errorf("served sum = %d, want 120", served)
	}
}

func TestConsistencyAcrossReplicasAndTime(t *testing.T) {
	// Many queries over few items: items get answered repeatedly by
	// different replicas at different times; answers must agree.
	res := run(t, Config{
		Replicas: 4,
		Queries:  200,
		Params:   core.Params{Epsilon: 0.25, Seed: 7},
		Seed:     2,
	})
	if res.Consistency < 0.97 {
		t.Errorf("consistency = %v, want >= 0.97", res.Consistency)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := Config{
		Replicas: 3,
		Queries:  80,
		Params:   core.Params{Epsilon: 0.25, Seed: 5},
		MTBF:     200 * time.Millisecond,
		Seed:     42,
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
	if a.Crashes != b.Crashes || a.VirtualDuration != b.VirtualDuration {
		t.Errorf("summaries differ: %+v vs %+v", a, b)
	}
}

func TestFailureInjectionTriggersRetries(t *testing.T) {
	res := run(t, Config{
		Replicas:        3,
		Queries:         300,
		Params:          core.Params{Epsilon: 0.25, Seed: 5},
		ArrivalInterval: 15 * time.Millisecond, // utilization ~0.18: not overloaded
		MTBF:            40 * time.Millisecond, // aggressive churn
		RepairTime:      30 * time.Millisecond,
		ServiceTime:     8 * time.Millisecond,
		Seed:            3,
	})
	if res.Crashes == 0 {
		t.Fatal("failure injection produced no crashes")
	}
	if res.MeanRetries == 0 {
		t.Error("aggressive churn produced no retries")
	}
	// Statelessness pays: availability stays high because any healthy
	// replica can answer any query with no recovery protocol.
	if res.Availability < 0.85 {
		t.Errorf("availability = %v under churn, want >= 0.85", res.Availability)
	}
	// Consistency survives failovers.
	if res.Consistency < 0.95 {
		t.Errorf("consistency = %v under churn, want >= 0.95", res.Consistency)
	}
}

func TestSingleReplicaDowntimeLosesQueries(t *testing.T) {
	// With one replica and no failover target, crashes must surface as
	// lost queries — the harness must not silently paper over them.
	res := run(t, Config{
		Replicas:        1,
		Queries:         300,
		Params:          core.Params{Epsilon: 0.25, Seed: 5},
		ArrivalInterval: 15 * time.Millisecond,
		MTBF:            30 * time.Millisecond,
		RepairTime:      60 * time.Millisecond,
		ServiceTime:     8 * time.Millisecond,
		Seed:            4,
	})
	if res.Crashes == 0 {
		t.Fatal("no crashes injected")
	}
	if res.Availability >= 1 {
		t.Errorf("availability = %v with a single crashing replica, expected < 1", res.Availability)
	}
}

func TestLatencyPercentilesOrdered(t *testing.T) {
	res := run(t, Config{
		Replicas: 2,
		Queries:  150,
		Params:   core.Params{Epsilon: 0.25, Seed: 5},
		Seed:     5,
	})
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("latency percentiles p50=%v p99=%v", res.P50, res.P99)
	}
}

func TestSortedRecordsByCompletion(t *testing.T) {
	res := run(t, Config{
		Replicas: 2,
		Queries:  60,
		Params:   core.Params{Epsilon: 0.25, Seed: 5},
		Seed:     6,
	})
	// The event loop appends records in completion order.
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].DoneAt < res.Records[i-1].DoneAt {
			t.Fatal("Records not ordered by completion")
		}
	}
}

func TestQueueingRaisesLatencyUnderLoad(t *testing.T) {
	// Overloaded regime: arrivals far faster than service. With FIFO
	// queues per replica, later queries must wait, so p99 latency far
	// exceeds the raw service time.
	res := run(t, Config{
		Replicas:        2,
		Queries:         200,
		Params:          core.Params{Epsilon: 0.25, Seed: 5},
		ArrivalInterval: 1 * time.Millisecond,
		ServiceTime:     10 * time.Millisecond,
		Seed:            21,
	})
	if res.P99 < 50*time.Millisecond {
		t.Errorf("p99 = %v under 10x overload, expected queueing delay", res.P99)
	}
	if res.Availability != 1 {
		t.Errorf("availability = %v (queueing must not drop queries)", res.Availability)
	}
}

func TestLeastBusySpreadsLoadEvenly(t *testing.T) {
	cfg := Config{
		Replicas:        4,
		Queries:         400,
		Params:          core.Params{Epsilon: 0.25, Seed: 5},
		ArrivalInterval: 1 * time.Millisecond,
		ServiceTime:     8 * time.Millisecond,
		Seed:            22,
	}
	cfg.Policy = PolicyLeastBusy
	lb := run(t, cfg)

	spread := func(served []int) int {
		lo, hi := served[0], served[0]
		for _, c := range served[1:] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return hi - lo
	}
	// Least-busy routing balances within a tight band.
	if s := spread(lb.PerReplicaServed); s > 60 {
		t.Errorf("least-busy spread = %d (%v), want tight balance",
			s, lb.PerReplicaServed)
	}
	// And it should not hurt latency relative to random routing.
	cfg.Policy = PolicyRandom
	random := run(t, cfg)
	if lb.P99 > random.P99*3 {
		t.Errorf("least-busy p99 %v much worse than random %v", lb.P99, random.P99)
	}
}

func TestPowerOfTwoBalancesBetterThanRandom(t *testing.T) {
	cfg := Config{
		Replicas:        4,
		Queries:         400,
		Params:          core.Params{Epsilon: 0.25, Seed: 5},
		ArrivalInterval: 1 * time.Millisecond,
		ServiceTime:     8 * time.Millisecond,
		Seed:            23,
	}
	spread := func(served []int) int {
		lo, hi := served[0], served[0]
		for _, c := range served[1:] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return hi - lo
	}
	cfg.Policy = PolicyPowerOfTwo
	p2c := run(t, cfg)
	cfg.Policy = PolicyRandom
	random := run(t, cfg)
	// The classic power-of-two-choices result: sampling just two queues
	// collapses the load imbalance of purely random routing.
	if spread(p2c.PerReplicaServed) >= spread(random.PerReplicaServed) {
		t.Errorf("p2c spread %v (%d) not tighter than random %v (%d)",
			p2c.PerReplicaServed, spread(p2c.PerReplicaServed),
			random.PerReplicaServed, spread(random.PerReplicaServed))
	}
	if p2c.Availability != 1 {
		t.Errorf("p2c availability = %v without failures, want 1", p2c.Availability)
	}
}

func TestGatewayFailoverScenarioUnderP2C(t *testing.T) {
	// The simulated twin of the gateway's serving posture: power-of-two
	// routing with per-query failover under crash/restart churn. The
	// operator-visible outcome must match the live e2e test —
	// availability stays high, and every repeatedly-answered item is
	// answered unanimously no matter which replica survived to serve it.
	res := run(t, Config{
		Replicas:        3,
		Queries:         300,
		Params:          core.Params{Epsilon: 0.25, Seed: 5},
		ArrivalInterval: 15 * time.Millisecond,
		MTBF:            40 * time.Millisecond,
		RepairTime:      30 * time.Millisecond,
		ServiceTime:     8 * time.Millisecond,
		Policy:          PolicyPowerOfTwo,
		Seed:            24,
	})
	if res.Crashes == 0 {
		t.Fatal("failure injection produced no crashes")
	}
	if res.MeanRetries == 0 {
		t.Error("churn produced no failovers")
	}
	if res.Availability < 0.85 {
		t.Errorf("availability = %v under churn with p2c, want >= 0.85", res.Availability)
	}
	if res.Consistency != 1 {
		t.Errorf("consistency = %v; failover must never change an answer (Theorem 4.1)", res.Consistency)
	}
}
