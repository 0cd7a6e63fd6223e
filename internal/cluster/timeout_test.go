package cluster

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
)

// slowAccess delays every oracle access by an adjustable duration,
// honoring context cancellation while it waits.
type slowAccess struct {
	inner oracle.Access
	delay atomic.Int64 // nanoseconds
}

func (s *slowAccess) wait(ctx context.Context) error {
	d := time.Duration(s.delay.Load())
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

func (s *slowAccess) QueryItem(ctx context.Context, i int) (knapsack.Item, error) {
	if err := s.wait(ctx); err != nil {
		return knapsack.Item{}, err
	}
	return s.inner.QueryItem(ctx, i)
}

func (s *slowAccess) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	if err := s.wait(ctx); err != nil {
		return 0, err
	}
	return s.inner.SampleFrame(ctx, src, dst)
}

func (s *slowAccess) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	d, err := oracle.SampleOne(ctx, s, src)
	return d.Index, d.Item, err
}

func (s *slowAccess) N() int            { return s.inner.N() }
func (s *slowAccess) Capacity() float64 { return s.inner.Capacity() }

// TestServerRequestTimeout injects latency into the oracle behind an
// LCA replica and sets a per-request deadline far below it: the server
// must answer with a deadline error frame — not hang the connection —
// and keep serving once the oracle is fast again.
func TestServerRequestTimeout(t *testing.T) {
	acc, _ := testAccess(t, 200)
	slow := &slowAccess{inner: acc}
	slow.delay.Store(int64(250 * time.Millisecond))
	lca, err := core.NewLCAKP(slow, core.Params{Epsilon: 0.25, Seed: 2})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	eng := engine.New(lca)
	srv, err := NewLCAServer("127.0.0.1:0", testTenant, eng)
	if err != nil {
		t.Fatalf("NewLCAServer: %v", err)
	}
	defer srv.Close()
	srv.SetRequestTimeout(25 * time.Millisecond)

	client, err := DialLCA(srv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	done := make(chan error, 1)
	go func() {
		_, err := client.InSolution(context.Background(), 3)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("query against timed-out server hung")
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("InSolution error = %v, want remote error frame", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("remote error %q does not mention the deadline", err)
	}

	// The deadline aborted one request, not the server: with the oracle
	// fast again, the same replica answers on the same connection.
	slow.delay.Store(0)
	srv.SetRequestTimeout(0)
	if _, err := client.InSolution(context.Background(), 3); err != nil {
		t.Errorf("query after lifting timeout: %v", err)
	}

	// The aborted query shows up in the replica's outcome totals.
	totals := eng.Totals()
	if totals.Deadline != 1 {
		t.Errorf("totals.Deadline = %d, want 1 (totals %+v)", totals.Deadline, totals)
	}
}

// TestRoundTripCanceledDuringRead cancels an RPC whose server accepted
// the request and never answers: the read must return at once with
// context.Canceled, not when the connection's timeout expires, and the
// connection, whose stream position is now unknown, must be broken.
func TestRoundTripCanceledDuringRead(t *testing.T) {
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	addr := scriptedServer(t, func(conn net.Conn) {
		defer conn.Close()
		_ = readRequest(conn)
		<-hold
	})
	const timeout = 5 * time.Second
	client, err := DialLCA(addr, timeout)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err = client.InSolution(ctx, 3)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("InSolution error = %v, want context.Canceled", err)
	}
	if elapsed > timeout/4 {
		t.Errorf("canceled RPC returned after %v; the %v timeout, not the cancel, ended it", elapsed, timeout)
	}
	if !client.Broken() {
		t.Error("connection not broken after a canceled read")
	}
}
