package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"lcakp/internal/engine"
)

// materializeTestEpoch materializes the shared test workload as one
// sealed epoch's artifact.
func materializeTestEpoch(t testing.TB, n int, instance, epoch uint64) *Artifact {
	t.Helper()
	lca, acc := buildLCA(t, n)
	rule, err := MaterializeRule(context.Background(), lca)
	if err != nil {
		t.Fatalf("MaterializeRule: %v", err)
	}
	a, err := MaterializeEpoch(context.Background(), acc, rule, instance, testParams.Seed, epoch)
	if err != nil {
		t.Fatalf("MaterializeEpoch: %v", err)
	}
	return a
}

// TestArtifactEpochEncoding pins the one format across epochs: epoch 0
// and epoch 5 of the same solution share the version and the header
// layout, differ only in the epoch field (and so the trailer), and
// carry identical answer and rule sections.
func TestArtifactEpochEncoding(t *testing.T) {
	const n = 200
	a0 := materializeTestEpoch(t, n, 7, 0)
	a5 := materializeTestEpoch(t, n, 7, 5)
	b0, b5 := a0.Bytes(), a5.Bytes()
	if len(b0) != len(b5) {
		t.Fatalf("epoch 0 encodes to %d bytes, epoch 5 to %d", len(b0), len(b5))
	}
	for _, b := range [][]byte{b0, b5} {
		if v := binary.LittleEndian.Uint16(b[4:6]); v != FormatVersion {
			t.Fatalf("artifact version = %d, want %d", v, FormatVersion)
		}
		if off := binary.LittleEndian.Uint32(b[36:40]); off != headerSize {
			t.Fatalf("answer section at %d, want %d", off, headerSize)
		}
	}
	if !bytes.Equal(b0[:52], b5[:52]) {
		t.Fatal("epochs 0 and 5 differ in a header field other than the epoch")
	}
	if e0, e5 := binary.LittleEndian.Uint64(b0[52:60]), binary.LittleEndian.Uint64(b5[52:60]); e0 != 0 || e5 != 5 {
		t.Fatalf("epoch fields = %d, %d, want 0, 5", e0, e5)
	}
	if !bytes.Equal(b0[headerSize:len(b0)-trailerSize], b5[headerSize:len(b5)-trailerSize]) {
		t.Fatal("epochs 0 and 5 of one solution have different answer or rule sections")
	}
	for _, want := range []*Artifact{a0, a5} {
		back, err := Decode(bytes.Clone(want.Bytes()))
		if err != nil {
			t.Fatalf("Decode epoch %d: %v", want.Epoch, err)
		}
		if back.Epoch != want.Epoch || back.Instance != 7 || back.Seed != testParams.Seed || back.N != n {
			t.Fatalf("decoded artifact = (i%d, s%d, e%d, n%d), want (i7, s%d, e%d, n%d)",
				back.Instance, back.Seed, back.Epoch, back.N, testParams.Seed, want.Epoch, n)
		}
	}
}

// TestStoreEpochAddressing pins the store's (tenant, epoch) keying:
// every epoch, epoch 0 included, gets its own path, residency, and
// lookups, and epoch 0's file keeps the i%d-s%d.lcas name.
func TestStoreEpochAddressing(t *testing.T) {
	s, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	ctx := context.Background()

	const n = 128
	a0 := materializeTestEpoch(t, n, 11, 0)
	a3 := materializeTestEpoch(t, n, 11, 3)
	if err := s.Put(ctx, a0); err != nil {
		t.Fatalf("Put epoch 0: %v", err)
	}
	if err := s.Put(ctx, a3); err != nil {
		t.Fatalf("Put epoch 3: %v", err)
	}

	id := engine.TenantID{Instance: 11, Seed: testParams.Seed}
	vt0 := engine.VersionedTenant{Tenant: id}
	vt3 := engine.VersionedTenant{Tenant: id, Epoch: 3}
	p0, p3 := s.PathVersioned(vt0), s.PathVersioned(vt3)
	if p0 == p3 {
		t.Fatalf("epoch 0 and epoch 3 share a path: %s", p0)
	}
	if b0, b3 := filepath.Base(p0), filepath.Base(p3); b0 != "i11-s2.lcas" || b3 != "i11-s2-e3.lcas" {
		t.Fatalf("artifact file names = %s, %s, want i11-s2.lcas, i11-s2-e3.lcas", b0, b3)
	}
	if !s.HasVersioned(vt0) || !s.HasVersioned(vt3) {
		t.Fatal("HasVersioned missed a persisted artifact")
	}
	if s.HasVersioned(engine.VersionedTenant{Tenant: id, Epoch: 4}) {
		t.Fatal("HasVersioned invented epoch 4")
	}

	got0, err := s.GetVersioned(ctx, vt0)
	if err != nil || got0.Epoch != 0 {
		t.Fatalf("GetVersioned epoch 0: err %v", err)
	}
	got3, err := s.GetVersioned(ctx, vt3)
	if err != nil || got3.Epoch != 3 {
		t.Fatalf("GetVersioned epoch 3: err %v", err)
	}
	if _, err := s.GetVersioned(ctx, engine.VersionedTenant{Tenant: id, Epoch: 4}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetVersioned for absent epoch: err = %v, want ErrNotFound", err)
	}

	for i := 0; i < n; i += 17 {
		for _, c := range []struct {
			vt engine.VersionedTenant
			a  *Artifact
		}{{vt0, a0}, {vt3, a3}} {
			want, _ := c.a.Answer(i)
			in, ok, err := s.LookupEpoch(ctx, c.vt, i)
			if err != nil || !ok || in != want {
				t.Fatalf("LookupEpoch(%s, %d) = (%v, %v, %v), want %v", c.vt, i, in, ok, err, want)
			}
		}
	}
}

// TestStoreRejectsMisplacedEpochArtifact extends the misplacement
// check to the epoch axis: an epoch-3 artifact sitting at the epoch-5
// path is corruption, not epoch 5's answer.
func TestStoreRejectsMisplacedEpochArtifact(t *testing.T) {
	s, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	a3 := materializeTestEpoch(t, 64, 11, 3)
	id := engine.TenantID{Instance: 11, Seed: testParams.Seed}
	wrong := engine.VersionedTenant{Tenant: id, Epoch: 5}
	if err := a3.WriteFile(s.PathVersioned(wrong)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := s.GetVersioned(context.Background(), wrong); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misplaced epoch artifact: err = %v, want ErrCorrupt", err)
	}
}

// TestPutHookFiresOnlyForLocalPuts pins that the store has one
// persist path: every artifact put into this store — materialized here
// (Put) or fetched from a peer (PutBytes) — fires the SetOnPut hook,
// so a store-backed gateway installs either kind on its tenant.
func TestPutHookFiresOnlyForLocalPuts(t *testing.T) {
	s, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	ctx := context.Background()

	var fired []uint64
	s.SetOnPut(func(a *Artifact) { fired = append(fired, a.Epoch) })

	a2 := materializeTestEpoch(t, 64, 11, 2)
	if err := s.Put(ctx, a2); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("hook after Put: fired = %v, want [2]", fired)
	}

	a7 := materializeTestEpoch(t, 64, 11, 7)
	if _, err := s.PutBytes(ctx, append([]byte(nil), a7.Bytes()...)); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	if len(fired) != 2 || fired[1] != 7 {
		t.Fatalf("hook after PutBytes: fired = %v, want [2 7]", fired)
	}
	if !s.HasVersioned(engine.VersionedTenant{Tenant: engine.TenantID{Instance: 11, Seed: testParams.Seed}, Epoch: 7}) {
		t.Fatal("PutBytes did not persist the fetched artifact")
	}
}
