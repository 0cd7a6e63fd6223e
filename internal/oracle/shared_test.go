package oracle

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
)

// registered reports whether the registry holds an entry for the
// instance key names.
func registered(key weak.Pointer[knapsack.Instance]) bool {
	tables.mu.Lock()
	defer tables.mu.Unlock()
	_, ok := tables.entries[key]
	return ok
}

// TestSliceOraclesShareOneTable holds oracles over one instance to one
// alias table: the second oracle draws from the first one's table and
// allocates far less than the table's 16 B per item.
func TestSliceOraclesShareOneTable(t *testing.T) {
	const n = 200_000
	inst := workloadInstance(t, "zipf", n)
	first, err := NewSliceOracle(inst)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := NewSliceOracle(inst)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("second NewSliceOracle: %v", err)
	}
	if second.sampler != first.sampler {
		t.Error("two oracles over one instance hold different alias tables")
	}
	if bytes, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*n/100); bytes > limit {
		t.Errorf("the second oracle over an indexed instance allocated %d B, want at most %d (a table is %d B)", bytes, limit, 16*n)
	}
}

// TestEqualInstanceGetsItsOwnTable holds the registry to the instance
// pointer, not its contents: an instance with the same items at
// another address gets a table of its own, bit-identical to the first.
func TestEqualInstanceGetsItsOwnTable(t *testing.T) {
	inst := workloadInstance(t, "zipf", 20_000)
	twin := &knapsack.Instance{Items: slices.Clone(inst.Items), Capacity: inst.Capacity}
	a, err := NewSliceOracle(inst)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	b, err := NewSliceOracle(twin)
	if err != nil {
		t.Fatalf("NewSliceOracle(twin): %v", err)
	}
	if a.sampler == b.sampler {
		t.Error("an equal instance at another address shares the first one's table")
	}
	if !slices.Equal(a.sampler.table, b.sampler.table) {
		t.Error("equal instances built different alias tables")
	}
}

// staticCatalog is a package-level instance whose composite literal the
// linker allocates outside the heap, where no weak pointer can point.
var staticCatalog = &knapsack.Instance{
	Items:    []knapsack.Item{{Profit: 0.25, Weight: 0.5}, {Profit: 0.75, Weight: 0.25}},
	Capacity: 0.5,
}

// TestStaticInstanceGetsPrivateTables holds an instance outside the
// heap to private tables: its oracles work, each over a table of its
// own bit-identical to NewAliasSampler's, and none aborts the program
// as a weak pointer to the instance would.
func TestStaticInstanceGetsPrivateTables(t *testing.T) {
	want, err := NewAliasSampler(staticCatalog)
	if err != nil {
		t.Fatalf("NewAliasSampler: %v", err)
	}
	a, err := NewSliceOracle(staticCatalog)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	b, err := NewSliceOracle(staticCatalog)
	if err != nil {
		t.Fatalf("second NewSliceOracle: %v", err)
	}
	if a.sampler == b.sampler {
		t.Error("two oracles over an instance outside the heap share a table the registry cannot free")
	}
	for _, o := range []*SliceOracle{a, b} {
		if !slices.Equal(o.sampler.table, want.table) {
			t.Error("an oracle over an instance outside the heap built a different table")
		}
	}
}

// TestSharedTableFreedByFirstGC holds a shared table to living exactly
// as long as some oracle uses it: once the last oracle over a live
// instance is dropped, the first GC frees the table, the instance
// keeps its entry, and the next oracle rebuilds the same table. Once
// the instance dies too, its entry is deleted. The collector's pacer
// is off, so each GC the test runs is the first one after its drop.
func TestSharedTableFreedByFirstGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	key := checkTableDiesBeforeInstance(t)
	runtime.GC()
	deadline := time.Now().Add(5 * time.Second)
	for registered(key) {
		if time.Now().After(deadline) {
			t.Fatal("a dead instance's registry entry outlived the first GC after it")
		}
		time.Sleep(time.Millisecond)
	}
}

// checkTableDiesBeforeInstance runs the first half of
// TestSharedTableFreedByFirstGC over an instance it returns only the
// registry key of, which does not keep the instance alive.
func checkTableDiesBeforeInstance(t *testing.T) weak.Pointer[knapsack.Instance] {
	t.Helper()
	inst := workloadInstance(t, "zipf", 20_000)
	key := weak.Make(inst)
	freed := make(chan struct{})
	drawFromDiscardedOracle(t, inst, freed)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the table of a dropped oracle outlived the first GC after it")
	}
	if !registered(key) {
		t.Fatal("a live instance lost its registry entry with its table")
	}
	o, err := NewSliceOracle(inst)
	if err != nil {
		t.Fatalf("NewSliceOracle after the table died: %v", err)
	}
	want, err := NewAliasSampler(inst)
	if err != nil {
		t.Fatalf("NewAliasSampler: %v", err)
	}
	if !slices.Equal(o.sampler.table, want.table) {
		t.Error("the rebuilt shared table differs from a private build")
	}
	return key
}

// drawFromDiscardedOracle draws one frame from a new oracle over inst
// whose table closes freed once it is collected, and returns nothing
// that reaches the oracle.
func drawFromDiscardedOracle(t *testing.T, inst *knapsack.Instance, freed chan struct{}) {
	t.Helper()
	o, err := NewSliceOracle(inst)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	runtime.AddCleanup(o.sampler, func(freed chan struct{}) { close(freed) }, freed)
	if _, err := o.SampleFrame(context.Background(), rng.New(1), make([]Draw, 64)); err != nil {
		t.Fatalf("SampleFrame: %v", err)
	}
}

// TestConcurrentOraclesDrawSequentialStream races eight first oracles
// over one instance: they build one table between them, and each draws
// exactly the stream an oracle over a private table draws.
func TestConcurrentOraclesDrawSequentialStream(t *testing.T) {
	const workers = 8
	ctx := context.Background()
	inst := workloadInstance(t, "zipf", 50_000)
	private, err := NewAliasSampler(inst)
	if err != nil {
		t.Fatalf("NewAliasSampler: %v", err)
	}
	want := make([]Draw, 4*frameChunk+3)
	if _, err := NewSliceOracleWithSampler(inst, private).SampleFrame(ctx, rng.New(7), want); err != nil {
		t.Fatalf("SampleFrame: %v", err)
	}

	got := make([][]Draw, workers)
	samplers := make([]*AliasSampler, workers)
	errs := make([]error, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for w := range workers {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			o, err := NewSliceOracle(inst)
			if err != nil {
				errs[w] = err
				return
			}
			samplers[w] = o.sampler
			got[w] = make([]Draw, len(want))
			_, errs[w] = o.SampleFrame(ctx, rng.New(7), got[w])
		}()
	}
	start.Done()
	done.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if samplers[w] != samplers[0] {
			t.Errorf("worker %d drew from another table than worker 0", w)
		}
		if !slices.Equal(got[w], want) {
			t.Errorf("worker %d drew a different stream than the sequential one", w)
		}
	}
}
