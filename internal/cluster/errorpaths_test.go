package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/oracle"
)

// newTestEngine builds an engine over acc with the same parameters as
// newTestLCAServer, so a "restarted" server answers identically.
func newTestEngine(t *testing.T, acc *oracle.SliceOracle) *engine.Engine {
	t.Helper()
	lca, err := core.NewLCAKP(acc, core.Params{Epsilon: 0.25, Seed: 2})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	return engine.New(lca)
}

// scriptedServer runs fn on every accepted connection — a stand-in
// peer for transport-failure scenarios the real servers never produce
// on purpose.
func scriptedServer(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go fn(conn)
		}
	}()
	return ln.Addr().String()
}

// readRequest consumes one request frame off a raw connection.
func readRequest(conn net.Conn) error {
	_, err := readFrame(conn)
	return err
}

func TestConnBrokenAfterMidFrameClose(t *testing.T) {
	// The server answers the first request with a truncated frame —
	// a declared 100-byte body of which only 4 bytes arrive — then
	// closes. The client must fail the RPC, poison the connection, and
	// fail all subsequent calls fast with ErrConnBroken.
	addr := scriptedServer(t, func(conn net.Conn) {
		defer conn.Close()
		if err := readRequest(conn); err != nil {
			return
		}
		_, _ = conn.Write([]byte{100, 0, 0, 0, protocolVersion, msgInSol | respBit, 0, 1})
	})

	client, err := DialLCA(addr, time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	if _, err := client.InSolution(context.Background(), 0); err == nil {
		t.Fatal("InSolution on truncated frame: want error, got nil")
	}
	if !client.Broken() {
		t.Error("Broken() = false after truncated frame, want true")
	}
	start := time.Now()
	_, err = client.InSolution(context.Background(), 1)
	if !errors.Is(err, ErrConnBroken) {
		t.Errorf("second InSolution error = %v, want ErrConnBroken", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("fail-fast took %v; broken conns must not touch the network", elapsed)
	}
}

func TestConnBrokenAfterServerCrashBetweenRequestAndResponse(t *testing.T) {
	// The server reads the request and dies without answering — the
	// gateway's failover trigger. The pending RPC errors and the
	// connection is left unusable (typed, not desynced).
	addr := scriptedServer(t, func(conn net.Conn) {
		_ = readRequest(conn)
		_ = conn.Close()
	})

	client, err := DialLCA(addr, time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	if _, err := client.InSolution(context.Background(), 7); err == nil {
		t.Fatal("InSolution against crashing server: want error, got nil")
	}
	if _, err := client.InSolutionBatch(context.Background(), []int{1, 2}); !errors.Is(err, ErrConnBroken) {
		t.Errorf("batch after crash error = %v, want ErrConnBroken", err)
	}
}

func TestRemoteErrorDoesNotBreakConn(t *testing.T) {
	// Application-level error responses are part of the protocol's
	// happy path: the stream stays aligned, so the connection must NOT
	// be poisoned (regression guard for the broken-conn marking).
	acc, _ := testAccess(t, 50)
	srv := newTestLCAServer(t, acc)
	client, err := DialLCA(srv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	if _, err := client.InSolution(context.Background(), 10_000_000); !errors.Is(err, ErrRemote) {
		t.Fatalf("out-of-range query error = %v, want ErrRemote", err)
	}
	if client.Broken() {
		t.Error("Broken() = true after remote error; only transport failures poison the conn")
	}
	if _, err := client.InSolution(context.Background(), 3); err != nil {
		t.Errorf("InSolution after remote error: %v", err)
	}
}

func TestReconnectAfterServerRestart(t *testing.T) {
	// Kill a replica, restart it on the same address with the same
	// seed, re-dial: the answers must be bit-identical — the
	// statelessness that makes gateway failover a pure transport
	// concern (Definition 2.2).
	acc, _ := testAccess(t, 200)
	srv := newTestLCAServer(t, acc)
	addr := srv.Addr()

	client, err := DialLCA(addr, time.Second)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	indices := []int{0, 3, 57, 101, 199}
	before, err := client.InSolutionBatch(context.Background(), indices)
	if err != nil {
		t.Fatalf("InSolutionBatch before restart: %v", err)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := client.InSolution(context.Background(), 0); err == nil {
		t.Fatal("InSolution against closed server: want error, got nil")
	}
	_ = client.Close()

	// Restart on the same port (ephemeral listeners set SO_REUSEADDR).
	restarted, err := NewLCAServer(addr, testTenant, newTestEngine(t, acc))
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer restarted.Close()

	reclient, err := DialLCA(addr, time.Second)
	if err != nil {
		t.Fatalf("re-dial after restart: %v", err)
	}
	defer reclient.Close()
	after, err := reclient.InSolutionBatch(context.Background(), indices)
	if err != nil {
		t.Fatalf("InSolutionBatch after restart: %v", err)
	}
	for k := range indices {
		if before[k] != after[k] {
			t.Errorf("item %d: answer %v before restart, %v after; restart must preserve answers", indices[k], before[k], after[k])
		}
	}
}

func TestDialLCAContextCanceled(t *testing.T) {
	acc, _ := testAccess(t, 50)
	srv := newTestLCAServer(t, acc)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialLCAContext(ctx, srv.Addr(), time.Second); !errors.Is(err, context.Canceled) {
		t.Errorf("DialLCAContext with canceled ctx: error = %v, want context.Canceled", err)
	}
	if _, err := DialInstanceContext(ctx, srv.Addr(), time.Second, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("DialInstanceContext with canceled ctx: error = %v, want context.Canceled", err)
	}
}
