package gateway

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
)

// scriptedBackend is a wire backend whose InSolutionBatch behavior is
// scripted per call, for driving warm-up failure paths deterministically:
// which chunk fails, which chunk blocks, which succeeds. It answers
// every (tenant, epoch) a frame names.
type scriptedBackend struct {
	mu    sync.Mutex
	calls int
	// failCall makes that batch call (1-based) return an error.
	failCall int
	// blockCall makes that batch call park until its context dies or
	// release closes, signaling entered first — the hook for mid-warm
	// cancellation. Cancellation reaches the client as its deadline
	// (the wire does not propagate cancels), so tests pair this with a
	// short RPCTimeout.
	blockCall int
	entered   chan struct{}
	release   chan struct{}
	// answer, when set, answers each index (all false otherwise).
	answer func(int) bool
	// items logs every index the batch calls carried, in order.
	items []int
}

func (b *scriptedBackend) ResolveEpoch(_ context.Context, q cluster.TenantQuery) (cluster.Backend, engine.EpochID, error) {
	return b, q.Epoch, nil
}

func (b *scriptedBackend) InSolution(context.Context, int) (bool, error) { return false, nil }

func (b *scriptedBackend) InSolutionBatch(ctx context.Context, indices []int) ([]bool, error) {
	b.mu.Lock()
	b.calls++
	c := b.calls
	b.items = append(b.items, indices...)
	b.mu.Unlock()
	answers := make([]bool, len(indices))
	if b.answer != nil {
		for k, i := range indices {
			answers[k] = b.answer(i)
		}
	}
	switch c {
	case b.failCall:
		return nil, errors.New("synthetic chunk failure")
	case b.blockCall:
		close(b.entered)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-b.release:
			return answers, nil
		}
	}
	return answers, nil
}

// scriptedGateway mounts a scriptedBackend on a wire server and fronts
// it with a no-retry, no-hedge gateway so each warm chunk maps to
// exactly one backend call.
func scriptedGateway(t *testing.T, be *scriptedBackend, maxBatch int) *Gateway {
	t.Helper()
	srv, err := cluster.NewQueryServer("127.0.0.1:0", be)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	gw, err := New(Options{
		Replicas:    []string{srv.Addr()},
		Seed:        testParams.Seed,
		HedgeDelay:  -1,
		MaxAttempts: 1,
		MaxBatch:    maxBatch,
		RPCTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw
}

func TestWarmTenantUnknownTenant(t *testing.T) {
	addrs, _, _ := testFleet(t, 20, 1)
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()
	bogus := engine.TenantID{Instance: 999, Seed: 999}
	if _, err := gw.WarmTenant(context.Background(), bogus, []int{0, 1}); !errors.Is(err, cluster.ErrUnknownTenant) {
		t.Fatalf("WarmTenant(unknown) = %v, want ErrUnknownTenant", err)
	}
}

// TestWarmPartialFailureContinues pins the warm-up failure contract: a
// failed chunk does not abort the remaining chunks, and the partial
// failure surfaces as a *WarmError with exact item and chunk counts —
// not just as a silently smaller return value.
func TestWarmPartialFailureContinues(t *testing.T) {
	be := &scriptedBackend{failCall: 2}
	gw := scriptedGateway(t, be, 4)

	items := make([]int, 12) // 3 chunks of 4
	for i := range items {
		items[i] = i
	}
	tracer := obs.NewTracer(16)
	ctx, span := tracer.StartSpan(context.Background(), "test.warm")
	warmed, err := gw.Warm(ctx, items)
	span.End()

	if warmed != 8 {
		t.Errorf("warmed = %d, want 8 (chunks 1 and 3)", warmed)
	}
	var we *WarmError
	if !errors.As(err, &we) {
		t.Fatalf("Warm error = %v (%T), want *WarmError", err, err)
	}
	if we.Warmed != 8 || we.Failed != 4 || we.FailedChunks != 1 {
		t.Errorf("WarmError = %+v, want Warmed=8 Failed=4 FailedChunks=1", we)
	}
	if !errors.Is(err, cluster.ErrRemote) {
		t.Errorf("WarmError does not unwrap to the chunk failure: %v", err)
	}
	if m := gw.Metrics(); m.Warmed != 8 {
		t.Errorf("Metrics().Warmed = %d, want 8", m.Warmed)
	}
	// The items of the surviving chunks are resident; the failed chunk's
	// are not.
	for i := 0; i < 12; i++ {
		_, resident := gw.cache.get(Key{Instance: 0, Seed: testParams.Seed, Item: i})
		if want := i < 4 || i >= 8; resident != want {
			t.Errorf("item %d resident = %v, want %v", i, resident, want)
		}
	}
	// The traced warm-up shows one cache_fill event per warmed batch and
	// one warn event for the failed chunk.
	var fills, warns int
	for _, s := range tracer.Recorder().Spans() {
		for _, e := range s.Events {
			switch e.Name {
			case "gateway.cache_fill":
				fills++
			case "gateway.warm_chunk_failed":
				warns++
				if e.Level != obs.LevelWarn {
					t.Errorf("warm_chunk_failed level = %v, want warn", e.Level)
				}
			}
		}
	}
	if fills != 2 || warns != 1 {
		t.Errorf("span events: %d cache_fill, %d warm_chunk_failed; want 2 and 1", fills, warns)
	}
}

// TestWarmCancellationMidWarm pins the one failure that DOES stop the
// loop: a dead context. Chunks already fetched stay cached; every
// chunk not yet attempted is charged to the failure count so the
// WarmError reports the true shortfall.
func TestWarmCancellationMidWarm(t *testing.T) {
	be := &scriptedBackend{blockCall: 2, entered: make(chan struct{}), release: make(chan struct{})}
	defer close(be.release) // free the parked server handler
	gw := scriptedGateway(t, be, 4)

	items := make([]int, 12)
	for i := range items {
		items[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-be.entered // second chunk is in flight
		cancel()
	}()
	warmed, err := gw.Warm(ctx, items)
	if warmed != 4 {
		t.Errorf("warmed = %d, want 4 (first chunk only)", warmed)
	}
	var we *WarmError
	if !errors.As(err, &we) {
		t.Fatalf("Warm error = %v (%T), want *WarmError", err, err)
	}
	if we.Warmed != 4 || we.Failed != 8 {
		t.Errorf("WarmError = %+v, want Warmed=4 Failed=8 (in-flight chunk plus never-attempted chunk)", we)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("WarmError does not unwrap to context.Canceled: %v", err)
	}
}

// TestWarmConcurrentWithQueries races WarmTenant against live query
// traffic over the same item range — run under -race, this is the
// warm-vs-serve data-race check, and bit-exactness must hold
// throughout (warming can never publish a wrong or torn answer,
// because there is only one right answer per key).
func TestWarmConcurrentWithQueries(t *testing.T) {
	const n = 200
	addrs, _, baseline := testFleet(t, n, 2)
	gw, err := New(Options{Replicas: addrs, Seed: testParams.Seed, HedgeDelay: -1, MaxBatch: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	ctx := context.Background()
	want := make([]bool, n)
	for i := range want {
		if want[i], err = baseline.Query(ctx, i); err != nil {
			t.Fatalf("baseline Query(%d): %v", i, err)
		}
	}
	id := engine.TenantID{Instance: 0, Seed: testParams.Seed}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := gw.WarmTenant(ctx, id, items); err != nil {
			t.Errorf("WarmTenant: %v", err)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 300; q++ {
				i := (w*41 + q*13) % n
				got, err := gw.InSolution(ctx, i)
				if err != nil {
					t.Errorf("InSolution(%d): %v", i, err)
					return
				}
				if got != want[i] {
					t.Errorf("InSolution(%d) = %v during warm, want %v", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
