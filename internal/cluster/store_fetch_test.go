package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lcakp/internal/engine"
)

// artifactBackend is an EpochBackend that also serves the artifact of
// one (tenant, epoch) — the shape a gateway presents on its peer
// endpoint.
type artifactBackend struct {
	stubBackend
	vt   engine.VersionedTenant
	data []byte
}

func (b *artifactBackend) ResolveEpoch(_ context.Context, q TenantQuery) (Backend, engine.EpochID, error) {
	return b, q.Epoch, nil
}

func (b *artifactBackend) ArtifactBytes(_ context.Context, id engine.TenantID, ep engine.EpochID) ([]byte, error) {
	if (engine.VersionedTenant{Tenant: id, Epoch: ep}) != b.vt {
		return nil, fmt.Errorf("no artifact for %s", engine.VersionedTenant{Tenant: id, Epoch: ep})
	}
	return b.data, nil
}

// stubBackend answers every membership query false.
type stubBackend struct{}

func (stubBackend) InSolution(context.Context, int) (bool, error) { return false, nil }
func (stubBackend) InSolutionBatch(_ context.Context, indices []int) ([]bool, error) {
	return make([]bool, len(indices)), nil
}

func TestMsgStoreFetchRoundTrip(t *testing.T) {
	id := engine.TenantID{Instance: 42, Seed: 7}
	payload := []byte("not-a-real-artifact: transport is checksum-agnostic")
	be := &artifactBackend{vt: engine.VersionedTenant{Tenant: id, Epoch: 3}, data: payload}
	srv, err := NewQueryServer("127.0.0.1:0", be)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer srv.Close()

	c, err := DialLCA(srv.Addr(), time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer c.Close()

	got, err := c.FetchArtifact(context.Background(), id, 3, nil)
	if err != nil {
		t.Fatalf("FetchArtifact: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("fetched %q, want %q", got, payload)
	}
	// The returned bytes must be caller-owned: a subsequent RPC on the
	// same connection must not clobber them.
	if _, err := c.InSolution(context.Background(), 1); err != nil {
		t.Fatalf("InSolution after fetch: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fetched bytes were clobbered by a later RPC on the same connection")
	}

	// An absent tenant, or another epoch of the held one, answers with
	// a remote error, not garbage.
	if _, err := c.FetchArtifact(context.Background(), engine.TenantID{Instance: 1, Seed: 1}, 3, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("FetchArtifact(absent tenant) = %v, want ErrRemote", err)
	}
	if _, err := c.FetchArtifact(context.Background(), id, 0, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("FetchArtifact(absent epoch) = %v, want ErrRemote", err)
	}
}

// TestMsgStoreFetchUnsupported pins the degradation contract: a server
// whose backend does not provide artifacts answers with a clean remote
// error (the same shape old servers give unknown message types), so
// peer-fill falls back to replica queries instead of wedging.
func TestMsgStoreFetchUnsupported(t *testing.T) {
	srv, err := NewQueryServer("127.0.0.1:0", stubBackend{})
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer srv.Close()
	c, err := DialLCA(srv.Addr(), time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer c.Close()
	if _, err := c.FetchArtifact(context.Background(), engine.TenantID{Instance: 1, Seed: 2}, 0, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("FetchArtifact on non-provider = %v, want ErrRemote", err)
	}
	// The connection survives the rejection.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping after rejected fetch: %v", err)
	}
}

// sinkBackend is an artifact backend that would install pushed
// artifacts if a frame ever reached it, counting each call.
type sinkBackend struct {
	artifactBackend
	accepted atomic.Int64
}

func (b *sinkBackend) AcceptArtifact(context.Context, []byte) error {
	b.accepted.Add(1)
	return nil
}

// TestStorePushFrameRefused pins that artifacts move only by fetch:
// a frame of the retired push type (9) carrying artifact bytes gets an
// error frame, and no backend method that could install bytes runs,
// whatever methods the backend has.
func TestStorePushFrameRefused(t *testing.T) {
	id := engine.TenantID{Instance: 42, Seed: 7}
	be := &sinkBackend{artifactBackend: artifactBackend{vt: engine.VersionedTenant{Tenant: id}, data: []byte("held")}}
	srv, err := NewQueryServer("127.0.0.1:0", be)
	if err != nil {
		t.Fatalf("NewQueryServer: %v", err)
	}
	defer srv.Close()
	c, err := dial(context.Background(), srv.Addr(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.close()

	const retiredStorePush uint8 = 9
	if err := c.roundTrip(context.Background(), frame{msgType: retiredStorePush, payload: []byte("LCAS pushed artifact bytes")}, nil); !errors.Is(err, ErrRemote) {
		t.Errorf("push frame answered with %v, want an error frame (ErrRemote)", err)
	}
	if n := be.accepted.Load(); n != 0 {
		t.Errorf("AcceptArtifact ran %d times, want 0", n)
	}
	if err := c.roundTrip(context.Background(), frame{msgType: msgPing}, nil); err != nil {
		t.Fatalf("ping after refused push: %v", err)
	}
}
