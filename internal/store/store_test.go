package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/oracle"
	"lcakp/internal/workload"
)

var testParams = core.Params{Epsilon: 0.45, Seed: 2}

// buildLCA constructs an independent LCA over the shared test
// workload; each call mimics a separate process deriving from scratch.
func buildLCA(t testing.TB, n int) (*core.LCAKP, oracle.Access) {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: 17})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	lca, err := core.NewLCAKP(acc, testParams)
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	return lca, acc
}

// materializeTest derives the canonical rule and materializes the full
// epoch-0 artifact for the shared test workload.
func materializeTest(t testing.TB, n int, instance uint64) (*Artifact, core.Rule, oracle.Access) {
	t.Helper()
	lca, acc := buildLCA(t, n)
	rule, err := MaterializeRule(context.Background(), lca)
	if err != nil {
		t.Fatalf("MaterializeRule: %v", err)
	}
	a, err := MaterializeEpoch(context.Background(), acc, rule, instance, testParams.Seed, 0)
	if err != nil {
		t.Fatalf("MaterializeEpoch: %v", err)
	}
	return a, rule, acc
}

func TestArtifactRoundTrip(t *testing.T) {
	const n = 400
	a, rule, acc := materializeTest(t, n, 7)

	if a.Instance != 7 || a.Seed != testParams.Seed || a.N != n {
		t.Fatalf("artifact header = (i%d, s%d, n%d), want (i7, s%d, n%d)",
			a.Instance, a.Seed, a.N, testParams.Seed, n)
	}
	if a.Epsilon != testParams.Epsilon {
		t.Fatalf("artifact epsilon = %v, want %v", a.Epsilon, testParams.Epsilon)
	}

	// Every answer bit must equal the rule's decision for that item.
	for i := 0; i < n; i++ {
		it, err := acc.QueryItem(context.Background(), i)
		if err != nil {
			t.Fatalf("QueryItem(%d): %v", i, err)
		}
		want := rule.Decide(i, it)
		got, err := a.InSolution(i)
		if err != nil {
			t.Fatalf("InSolution(%d): %v", i, err)
		}
		if got != want {
			t.Fatalf("artifact bit %d = %v, rule says %v", i, got, want)
		}
	}
	if _, err := a.InSolution(n); err == nil {
		t.Error("InSolution past range succeeded")
	}
	if _, err := a.InSolution(-1); err == nil {
		t.Error("InSolution(-1) succeeded")
	}

	// The rule section must round-trip to an Equal decision function.
	rs, err := a.Rule()
	if err != nil {
		t.Fatalf("Rule: %v", err)
	}
	back := rs.ToRule(a.Epsilon)
	if !back.Equal(rule) {
		t.Fatalf("rule round trip lost equality: %+v vs %+v", back, rule)
	}
	if len(back.Thresholds) != len(rule.Thresholds) {
		t.Fatalf("thresholds lost: %d vs %d", len(back.Thresholds), len(rule.Thresholds))
	}

	// Disk round trip through the atomic writer.
	path := filepath.Join(t.TempDir(), "artifact.lcas")
	if err := a.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	b, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("bytes changed across the disk round trip")
	}
	// Answers() agrees with InSolution.
	ans := b.Answers()
	for i := 0; i < n; i++ {
		got, _ := b.InSolution(i)
		if ans[i] != got {
			t.Fatalf("Answers[%d] = %v, InSolution = %v", i, ans[i], got)
		}
	}
}

// TestMaterializeDeterministicBytes is the determinism guarantee the
// peer tier rests on: two independent processes (modeled as two
// independently constructed LCAs over the same (I, r)) must emit
// bit-identical artifacts.
func TestMaterializeDeterministicBytes(t *testing.T) {
	const n = 400
	a, _, _ := materializeTest(t, n, 9)
	b, _, _ := materializeTest(t, n, 9)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("independent materializations of the same (I, r) differ")
	}
	if a.Checksum() != b.Checksum() {
		t.Fatal("checksums differ")
	}
}

// TestArtifactCorruptionRejected flips every byte of a small artifact
// one at a time: no single-byte corruption may survive validation.
func TestArtifactCorruptionRejected(t *testing.T) {
	a, _, _ := materializeTest(t, 64, 3)
	orig := a.Bytes()
	for off := 0; off < len(orig); off++ {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0xff
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flipping byte %d survived validation", off)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadVersion) {
			t.Fatalf("flipping byte %d: unexpected error class: %v", off, err)
		}
	}
	// Truncations must fail too.
	for _, cut := range []int{1, trailerSize, len(orig) / 2, len(orig) - 1} {
		if _, err := Decode(orig[:len(orig)-cut]); err == nil {
			t.Fatalf("truncating %d bytes survived validation", cut)
		}
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) succeeded")
	}
}

func TestStoreLifecycle(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := New(dir, 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, rule, acc := materializeTest(t, 200, 11)
	id := engine.VersionedTenant{Tenant: engine.TenantID{Instance: 11, Seed: testParams.Seed}}

	// Absent artifact: Lookup says no coverage, Get says ErrNotFound.
	if _, ok, err := s.LookupEpoch(ctx, id, 0); ok || err != nil {
		t.Fatalf("Lookup on empty store = (ok=%v, err=%v)", ok, err)
	}
	if _, err := s.GetVersioned(ctx, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
	}
	if s.HasVersioned(id) {
		t.Fatal("Has on empty store")
	}

	if err := s.Put(ctx, a); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !s.HasVersioned(id) {
		t.Fatal("Has after Put = false")
	}
	for i := 0; i < a.N; i++ {
		it, _ := acc.QueryItem(ctx, i)
		in, ok, err := s.LookupEpoch(ctx, id, i)
		if err != nil || !ok {
			t.Fatalf("Lookup(%d) = (ok=%v, err=%v)", i, ok, err)
		}
		if want := rule.Decide(i, it); in != want {
			t.Fatalf("Lookup(%d) = %v, rule says %v", i, in, want)
		}
	}
	// Out-of-range item: covered artifact, uncovered index.
	if _, ok, err := s.LookupEpoch(ctx, id, a.N); ok || err != nil {
		t.Fatalf("Lookup past range = (ok=%v, err=%v)", ok, err)
	}

	// A second store over the same directory sees the artifact (cold
	// open path) — the restart scenario.
	s2, err := New(dir, 2)
	if err != nil {
		t.Fatalf("New(restart): %v", err)
	}
	got, err := s2.GetVersioned(ctx, id)
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if !bytes.Equal(got.Bytes(), a.Bytes()) {
		t.Fatal("artifact changed across restart")
	}

	// PutBytes is the backfill path: raw bytes in, validated artifact
	// persisted.
	s3, err := New(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("New(backfill): %v", err)
	}
	if _, err := s3.PutBytes(ctx, a.Bytes()); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	if !s3.HasVersioned(id) {
		t.Fatal("backfilled artifact absent")
	}
	corrupt := append([]byte(nil), a.Bytes()...)
	corrupt[len(corrupt)/2] ^= 1
	if _, err := s3.PutBytes(ctx, corrupt); err == nil {
		t.Fatal("PutBytes accepted corrupt bytes")
	}

	if st := s.Stats(); st.Writes != 1 || st.Lookups == 0 {
		t.Fatalf("Stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Put(ctx, a); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if _, err := s.GetVersioned(ctx, id); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
}

// TestStoreRejectsCorruptFile corrupts the on-disk artifact and
// asserts the store reports it (rather than treating it as absent or
// serving garbage).
func TestStoreRejectsCorruptFile(t *testing.T) {
	ctx := context.Background()
	s, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, _, _ := materializeTest(t, 100, 5)
	id := engine.VersionedTenant{Tenant: engine.TenantID{Instance: 5, Seed: testParams.Seed}}
	if err := s.Put(ctx, a); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Corrupt one byte of the answer section on disk, then reopen
	// through a fresh store (the first store holds it resident).
	path := s.PathVersioned(id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	raw[headerSize] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s2, err := New(s.Dir(), 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s2.GetVersioned(ctx, id); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get over corrupt file: %v, want ErrCorrupt", err)
	}
	if _, _, err := s2.LookupEpoch(ctx, id, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Lookup over corrupt file: %v, want ErrCorrupt", err)
	}
	if st := s2.Stats(); st.Corrupt == 0 {
		t.Fatalf("Stats.Corrupt = 0 after rejected open: %+v", st)
	}
}

// TestStoreRejectsMisplacedArtifact writes tenant A's bytes at tenant
// B's address: the content address inside the file wins.
func TestStoreRejectsMisplacedArtifact(t *testing.T) {
	ctx := context.Background()
	s, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, _, _ := materializeTest(t, 100, 5)
	other := engine.VersionedTenant{Tenant: engine.TenantID{Instance: 6, Seed: testParams.Seed}}
	if err := a.WriteFile(s.PathVersioned(other)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := s.GetVersioned(ctx, other); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on misplaced artifact: %v, want ErrCorrupt", err)
	}
}

// TestStoreEviction holds the resident budget while keeping every
// artifact servable (evicted handles re-open from disk).
func TestStoreEviction(t *testing.T) {
	ctx := context.Background()
	s, err := New(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var ids []engine.VersionedTenant
	for inst := uint64(1); inst <= 4; inst++ {
		a, _, _ := materializeTest(t, 50, inst)
		if err := s.Put(ctx, a); err != nil {
			t.Fatalf("Put(i%d): %v", inst, err)
		}
		ids = append(ids, engine.VersionedTenant{Tenant: engine.TenantID{Instance: inst, Seed: testParams.Seed}})
	}
	st := s.Stats()
	if st.Resident > 2 {
		t.Fatalf("resident %d exceeds budget 2", st.Resident)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded over budget")
	}
	// Every artifact still answers (evicted ones re-open).
	for _, id := range ids {
		if _, ok, err := s.LookupEpoch(ctx, id, 0); !ok || err != nil {
			t.Fatalf("Lookup(%v) after eviction = (ok=%v, err=%v)", id, ok, err)
		}
	}
}

// BenchmarkStoreLookup is the hot-path guarantee: a resident-artifact
// point lookup allocates nothing (pinned in ALLOC_BUDGET.json).
func BenchmarkStoreLookup(b *testing.B) {
	ctx := context.Background()
	s, err := New(b.TempDir(), 4)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	a, _, _ := materializeTest(b, 200, 11)
	if err := s.Put(ctx, a); err != nil {
		b.Fatalf("Put: %v", err)
	}
	id := engine.VersionedTenant{Tenant: engine.TenantID{Instance: 11, Seed: testParams.Seed}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.LookupEpoch(ctx, id, i%a.N); !ok || err != nil {
			b.Fatalf("Lookup = (ok=%v, err=%v)", ok, err)
		}
	}
}
