package epoch

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/workload"
)

var testParams = core.Params{Epsilon: 0.45, Seed: 2}

// testInstance generates the shared normalized workload instance.
func testInstance(t testing.TB, n int, seed uint64) *knapsack.Instance {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return gen.Float
}

func newTestManager(t testing.TB, n int) *Manager {
	t.Helper()
	m, err := NewManager(context.Background(), engine.TenantID{Instance: 1, Seed: testParams.Seed},
		testInstance(t, n, 17), testParams, 0)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func TestLogCodecRoundTrip(t *testing.T) {
	log := []Mutation{
		{Op: OpAdd, Index: 100, Profit: 0.25, Weight: 0.5},
		{Op: OpRemove, Index: 3},
		{Op: OpReprice, Index: 7, Profit: 0.125, Weight: 0.0625},
	}
	enc := EncodeLog(log)
	dec, err := DecodeLog(enc)
	if err != nil {
		t.Fatalf("DecodeLog: %v", err)
	}
	if len(dec) != len(log) {
		t.Fatalf("decoded %d mutations, want %d", len(dec), len(log))
	}
	for i := range log {
		if dec[i] != log[i] {
			t.Fatalf("mutation %d: %+v != %+v", i, dec[i], log[i])
		}
	}
	// Canonical: re-encoding the decode gives identical bytes.
	if string(EncodeLog(dec)) != string(enc) {
		t.Fatal("re-encoded log differs from original bytes")
	}
	// Empty log round-trips too.
	if dec, err := DecodeLog(EncodeLog(nil)); err != nil || len(dec) != 0 {
		t.Fatalf("empty log: %v %v", dec, err)
	}
}

func TestLogCodecRejectsCorruption(t *testing.T) {
	enc := EncodeLog([]Mutation{{Op: OpAdd, Index: 0, Profit: 0.5, Weight: 0.5}})
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		if _, err := DecodeLog(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	if _, err := DecodeLog(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated log accepted")
	}
	if _, err := DecodeLog(nil); err == nil {
		t.Fatal("nil log accepted")
	}
}

func TestLogCodecRejectsBadRecords(t *testing.T) {
	cases := []Mutation{
		{Op: 0, Index: 0},
		{Op: 9, Index: 0},
		{Op: OpAdd, Profit: math.Inf(1), Weight: 1},
		{Op: OpAdd, Profit: math.NaN(), Weight: 1},
		{Op: OpAdd, Profit: -1, Weight: 1},
		{Op: OpRemove, Index: 1, Profit: 0.5},
	}
	for k, m := range cases {
		// EncodeLog is mechanical; validation happens on decode.
		if _, err := DecodeLog(EncodeLog([]Mutation{m})); err == nil {
			t.Fatalf("case %d (%+v) accepted", k, m)
		}
	}
}

func TestApplySemantics(t *testing.T) {
	base, err := knapsack.NewInstance([]knapsack.Item{
		{Profit: 0.5, Weight: 0.5},
		{Profit: 0.25, Weight: 0.25},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	next, err := Apply(base, []Mutation{
		{Op: OpReprice, Index: 0, Profit: 0.75, Weight: 0.5},
		{Op: OpRemove, Index: 1},
		{Op: OpAdd, Index: 2, Profit: 0.125, Weight: 0.125},
	})
	if err != nil {
		t.Fatal(err)
	}
	if next.N() != 3 {
		t.Fatalf("n = %d, want 3 (index space never shrinks)", next.N())
	}
	if next.Items[0].Profit != 0.75 {
		t.Fatalf("reprice lost: %+v", next.Items[0])
	}
	if got := knapsack.Classify(next.Items[1], 0.45); got != knapsack.ClassGarbage {
		t.Fatalf("removed item classifies as %v, want garbage", got)
	}
	if base.Items[0].Profit != 0.5 || base.N() != 2 {
		t.Fatal("Apply mutated the base instance")
	}

	// An add at the wrong index means the log replays against the
	// wrong base — refused.
	if _, err := Apply(base, []Mutation{{Op: OpAdd, Index: 5, Profit: 0.1, Weight: 0.1}}); err == nil {
		t.Fatal("misplaced add accepted")
	}
	if _, err := Apply(base, []Mutation{{Op: OpReprice, Index: 9, Profit: 0.1, Weight: 0.1}}); err == nil {
		t.Fatal("out-of-range reprice accepted")
	}
}

// TestApplyRejectsEachInvalidMutation holds Apply to every rejection
// Mutation.validate makes, now that the result is not checked again
// item by item: each invalid mutation, alone or after valid ones,
// fails Apply and leaves the base as it was.
func TestApplyRejectsEachInvalidMutation(t *testing.T) {
	base, err := knapsack.NewInstance([]knapsack.Item{
		{Profit: 0.5, Weight: 0.5},
		{Profit: 0.25, Weight: 0.25},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	valid := Mutation{Op: OpReprice, Index: 1, Profit: 0.125, Weight: 0.125}
	for name, m := range map[string]Mutation{
		"add at a taken index":  {Op: OpAdd, Index: 1, Profit: 0.1, Weight: 0.1},
		"add past the end":      {Op: OpAdd, Index: 3, Profit: 0.1, Weight: 0.1},
		"add with NaN profit":   {Op: OpAdd, Index: 2, Profit: math.NaN(), Weight: 0.1},
		"add with Inf weight":   {Op: OpAdd, Index: 2, Profit: 0.1, Weight: math.Inf(1)},
		"add with negative":     {Op: OpAdd, Index: 2, Profit: -0.1, Weight: 0.1},
		"remove out of range":   {Op: OpRemove, Index: 2},
		"remove with profit":    {Op: OpRemove, Index: 0, Profit: 0.1},
		"remove with weight":    {Op: OpRemove, Index: 0, Weight: 0.1},
		"reprice out of range":  {Op: OpReprice, Index: 2, Profit: 0.1, Weight: 0.1},
		"reprice with NaN":      {Op: OpReprice, Index: 0, Profit: 0.1, Weight: math.NaN()},
		"reprice with -Inf":     {Op: OpReprice, Index: 0, Profit: math.Inf(-1), Weight: 0.1},
		"reprice with negative": {Op: OpReprice, Index: 0, Profit: 0.1, Weight: -1},
		"unknown op":            {Op: 9, Index: 0},
		"zero op":               {Op: 0, Index: 0},
	} {
		for _, log := range [][]Mutation{{m}, {valid, m}} {
			if next, err := Apply(base, log); err == nil {
				t.Errorf("%s (log of %d): Apply accepted it and built %+v", name, len(log), next.Items)
			}
		}
	}
	if base.N() != 2 || base.Items[0] != (knapsack.Item{Profit: 0.5, Weight: 0.5}) || base.Items[1] != (knapsack.Item{Profit: 0.25, Weight: 0.25}) {
		t.Errorf("a rejected log changed the base: %+v", base.Items)
	}
}

// TestApplyRejectsInvalidBase holds Apply to its base's validity: a
// base that was never checked is checked once, and an invalid one
// fails Apply even when the log leaves its invalid item alone.
func TestApplyRejectsInvalidBase(t *testing.T) {
	base := &knapsack.Instance{Items: []knapsack.Item{{Profit: 0.5, Weight: 0.5}, {Profit: math.NaN(), Weight: 1}}, Capacity: 1}
	if _, err := Apply(base, []Mutation{{Op: OpReprice, Index: 0, Profit: 0.25, Weight: 0.25}}); !errors.Is(err, knapsack.ErrInvalidItem) {
		t.Errorf("Apply over an invalid base: error = %v, want ErrInvalidItem", err)
	}
	if _, err := Apply(&knapsack.Instance{Items: base.Items[:1], Capacity: -1}, nil); !errors.Is(err, knapsack.ErrNegativeCapacity) {
		t.Errorf("Apply over a base of negative capacity: error = %v, want ErrNegativeCapacity", err)
	}
}

// TestNewManagerRejectsInvalidBase holds NewManager to checking its
// base: an empty base, a negative capacity and an invalid item each
// fail it, now that a base passing the check is not walked again.
func TestNewManagerRejectsInvalidBase(t *testing.T) {
	id := engine.TenantID{Instance: 1, Seed: testParams.Seed}
	for name, base := range map[string]*knapsack.Instance{
		"empty":             {Capacity: 1},
		"negative capacity": {Items: []knapsack.Item{{Profit: 1, Weight: 1}}, Capacity: -1},
		"NaN profit":        {Items: []knapsack.Item{{Profit: 1, Weight: 1}, {Profit: math.NaN(), Weight: 1}}, Capacity: 1},
		"negative weight":   {Items: []knapsack.Item{{Profit: 1, Weight: -1}}, Capacity: 1},
	} {
		for k := range 2 {
			if _, err := NewManager(context.Background(), id, base, testParams, 0); err == nil {
				t.Errorf("%s base, boot %d: NewManager accepted it", name, k)
			}
		}
	}
}

func TestManagerSealAdvancesEpoch(t *testing.T) {
	const n = 300
	m := newTestManager(t, n)
	ctx := context.Background()

	if m.Current() != 0 {
		t.Fatalf("fresh manager at epoch %d", m.Current())
	}
	snap0, _ := m.Snapshot(0)
	baseline := make([]bool, n)
	q0 := ruleQuerier{snap: snap0}
	for i := 0; i < n; i++ {
		baseline[i], _ = q0.Query(ctx, i)
	}

	// Stage a visible churn: remove every selected item we can find.
	removed := -1
	for i := 0; i < n; i++ {
		if baseline[i] {
			removed = i
			break
		}
	}
	if removed < 0 {
		t.Skip("empty solution; no visible mutation available")
	}
	if err := m.Stage(Mutation{Op: OpRemove, Index: uint32(removed)}); err != nil {
		t.Fatal(err)
	}
	snap1, err := m.Seal(ctx)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if snap1.Epoch != 1 || m.Current() != 1 {
		t.Fatalf("sealed epoch %d, current %d", snap1.Epoch, m.Current())
	}
	if len(m.pending) != 0 {
		t.Fatal("pending log not cleared by seal")
	}
	// The removed item is out of the new epoch's solution.
	q1 := ruleQuerier{snap: snap1}
	if ans, _ := q1.Query(ctx, removed); ans {
		t.Fatal("removed item still selected in sealed epoch")
	}
	// Epoch 0 still answers its pre-churn baseline bit-for-bit.
	for i := 0; i < n; i++ {
		ans, err := q0.Query(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if ans != baseline[i] {
			t.Fatalf("epoch 0 answer for %d drifted after seal", i)
		}
	}
}

func TestSealEmptyLogIsIdentity(t *testing.T) {
	m := newTestManager(t, 200)
	snap0, _ := m.Snapshot(0)
	snap1, err := m.Seal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !snap1.Rule.Equal(snap0.Rule) {
		t.Fatal("sealing an empty log changed the rule (materialization rng not canonical?)")
	}
}

func TestSealDeterministicAcrossManagers(t *testing.T) {
	const n = 250
	log := []Mutation{
		{Op: OpReprice, Index: 4, Profit: 0.5, Weight: 0.25},
		{Op: OpRemove, Index: 9},
		{Op: OpAdd, Index: uint32(n), Profit: 0.0625, Weight: 0.0625},
	}
	rules := make([]core.Rule, 2)
	for k := range rules {
		m := newTestManager(t, n)
		if err := m.StageAll(log); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Seal(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rules[k] = snap.Rule
	}
	if !rules[0].Equal(rules[1]) {
		t.Fatal("two managers sealing the same log derived different rules")
	}
}

func TestManagerPrunesOldEpochs(t *testing.T) {
	base := testInstance(t, 150, 17)
	m, err := NewManager(context.Background(), engine.TenantID{Instance: 1, Seed: 2}, base, testParams, 2)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if _, err := m.Seal(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Retained()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("retained %v, want [2 3]", got)
	}
	if _, ok := m.Snapshot(0); ok {
		t.Fatal("pruned epoch still resolvable")
	}
}

// TestManagersOverOneInstanceKeepNoPerItemCopy holds a tenant to
// costing its rule, not copies of its catalog: two managers over one
// 200k-item zipf instance grow the live heap the first GC after them
// finds by less than 2 MB, where one copy of the items costs 3.2 MB
// and one alias table 2.2 MB more, and epoch 0's instance is the
// caller's base itself.
func TestManagersOverOneInstanceKeepNoPerItemCopy(t *testing.T) {
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: 200_000, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	base := gen.Float
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mgrs := make([]*Manager, 2)
	for k := range mgrs {
		id := engine.TenantID{Instance: 1, Seed: uint64(k + 1)}
		if mgrs[k], err = NewManager(context.Background(), id, base, benchParams, 0); err != nil {
			t.Fatalf("NewManager %d: %v", k, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const bound = 2 << 20
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew by %.2f MB", float64(grown)/(1<<20))
	if grown >= bound {
		t.Errorf("two managers over one %d-item instance grew the live heap by %.2f MB (%.1f B per item), want < %.0f MB",
			base.N(), float64(grown)/(1<<20), float64(grown)/float64(base.N()), float64(bound)/(1<<20))
	}
	for k, m := range mgrs {
		if snap, _ := m.Snapshot(0); snap.Instance != base {
			t.Errorf("manager %d: epoch 0's instance is not the base it was given", k)
		}
	}
}

// TestSealedEpochTableIsPrivate holds a seal to an alias table of its
// own that dies with it: Apply has just made the sealed instance and
// only the seal reads it, so its table is never registered for other
// oracles to find. With the collector off the seal's table is still in
// the heap, yet an oracle over the sealed instance allocates at least
// what a fresh NewAliasSampler over an equal instance does, building a
// table of its own; and the first GC after the seal finds the live
// heap grown by the sealed instance's 16 B per item, not by half a
// fresh table more.
func TestSealedEpochTableIsPrivate(t *testing.T) {
	const n = 200_000
	base := benchInstance(t, n)
	tableAlloc, tableLive := freshTableBytes(t, base)
	t.Logf("a fresh table over an equal instance allocates %d B and keeps %d B (%.1f B per item)",
		tableAlloc, tableLive, float64(tableLive)/n)
	m, err := NewManager(context.Background(), engine.TenantID{Instance: 1, Seed: 1}, base, benchParams, 0)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if err := m.StageAll(swapLog(base)); err != nil {
		t.Fatalf("StageAll: %v", err)
	}
	var before, after, built runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	snap, err := m.Seal(context.Background())
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	runtime.ReadMemStats(&built)
	if _, err := oracle.NewSliceOracle(snap.Instance); err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - built.TotalAlloc; b < tableAlloc {
		t.Errorf("an oracle over the sealed instance allocated %d B, less than a %d B table: the seal's table is registered", b, tableAlloc)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew by %.2f MB (%.1f B per item)", float64(grown)/(1<<20), float64(grown)/n)
	if bound := 16*n + tableLive/2; grown >= bound {
		t.Errorf("a seal grew the live heap by %.1f B per item, want < %.1f: its alias table outlived it",
			float64(grown)/n, float64(bound)/n)
	}
}

// freshTableBytes builds the alias table of an instance equal to the
// one sealing swapLog over base makes, and returns the bytes the build
// allocates and the bytes the table keeps live.
func freshTableBytes(t *testing.T, base *knapsack.Instance) (alloc uint64, live int64) {
	t.Helper()
	equal, err := Apply(base, swapLog(base))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	var before, built, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second frees what pools dropped at the first
	runtime.ReadMemStats(&before)
	s, err := oracle.NewAliasSampler(equal)
	if err != nil {
		t.Fatalf("NewAliasSampler: %v", err)
	}
	runtime.ReadMemStats(&built)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return built.TotalAlloc - before.TotalAlloc, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

func TestFailedSealRestagesLog(t *testing.T) {
	m := newTestManager(t, 100)
	// An out-of-range reprice passes Stage-time validation only if we
	// bypass Stage; corrupt the pending log directly to force an apply
	// failure at seal time.
	m.mu.Lock()
	m.pending = []Mutation{{Op: OpReprice, Index: 1 << 20, Profit: 0.5, Weight: 0.5}}
	m.mu.Unlock()
	if _, err := m.Seal(context.Background()); err == nil {
		t.Fatal("seal of invalid log succeeded")
	}
	if m.Current() != 0 {
		t.Fatal("failed seal advanced the epoch")
	}
	if len(m.pending) != 1 {
		t.Fatal("failed seal dropped the pending log")
	}
}

func TestFactoryThroughTenantTable(t *testing.T) {
	const n = 200
	m := newTestManager(t, n)
	ctx := context.Background()
	table := engine.NewVersionedTenantTable(m.Factory(), 8)
	defer table.Close()

	id := m.tenant
	eng0, ep, err := table.GetEpoch(ctx, id, engine.EpochCurrent)
	if err != nil || ep != 0 {
		t.Fatalf("current epoch: %d %v", ep, err)
	}
	baseline := make([]bool, n)
	for i := range baseline {
		baseline[i], _, err = eng0.Query(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := m.Stage(Mutation{Op: OpAdd, Profit: 0.5, Weight: 0.125}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	if err := table.SetCurrentEpoch(id, engine.EpochID(m.Current())); err != nil {
		t.Fatal(err)
	}

	// Current queries see epoch 1 (one more index); pinned epoch-0
	// queries still match the baseline exactly.
	eng1, ep, err := table.GetEpoch(ctx, id, engine.EpochCurrent)
	if err != nil || ep != 1 {
		t.Fatalf("post-seal current epoch: %d %v", ep, err)
	}
	if _, _, err := eng1.Query(ctx, n); err != nil {
		t.Fatalf("added index unanswerable at epoch 1: %v", err)
	}
	engPinned, _, err := table.GetEpoch(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseline {
		ans, _, err := engPinned.Query(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if ans != baseline[i] {
			t.Fatalf("pinned epoch-0 answer for %d drifted", i)
		}
	}
	// The added index does not exist at epoch 0.
	if _, _, err := engPinned.Query(ctx, n); err == nil {
		t.Fatal("epoch 0 answered an index that only exists in epoch 1")
	}

	// Unknown epochs fail loudly.
	if _, _, err := table.GetEpoch(ctx, id, 99); err == nil || !strings.Contains(err.Error(), "not retained") {
		t.Fatalf("unsealed epoch: %v", err)
	}
}
