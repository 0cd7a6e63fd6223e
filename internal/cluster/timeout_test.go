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

// TestReplicaRedialsAfterInstanceTimeout delays the instance behind a
// replica by 200 ms while the replica's request timeout is 50 ms: the
// timed-out query, cut mid-sample, breaks the replica's instance
// connection and counts as a deadline, not an error. With both lifted,
// the replica redials its instance once and the next queries succeed;
// before the redial every later query of the tenant failed with
// ErrConnBroken until the tenant was evicted.
func TestReplicaRedialsAfterInstanceTimeout(t *testing.T) {
	acc, _ := testAccess(t, 200)
	slow := &slowAccess{inner: acc}
	slow.delay.Store(int64(200 * time.Millisecond))
	inst, err := NewInstanceServer("127.0.0.1:0", slow)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer inst.Close()
	remote, err := DialInstance(inst.Addr(), 0, 0)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()
	lca, err := core.NewLCAKP(remote, core.Params{Epsilon: 0.25, Seed: 2})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	eng := engine.New(lca)
	srv, err := NewLCAServer("127.0.0.1:0", testTenant, eng)
	if err != nil {
		t.Fatalf("NewLCAServer: %v", err)
	}
	defer srv.Close()
	srv.SetRequestTimeout(50 * time.Millisecond)
	client, err := DialLCA(srv.Addr(), 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()

	ctx := context.Background()
	if _, err := client.InSolution(ctx, 3); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("InSolution against the slow instance: %v, want a remote deadline error", err)
	}
	if !remote.conn.Load().broken() {
		t.Fatal("the timed-out sample RPC left the instance connection usable; the test no longer covers a redial")
	}

	slow.delay.Store(0)
	srv.SetRequestTimeout(0)
	for i := range 3 {
		if _, err := client.InSolution(ctx, i); err != nil {
			t.Fatalf("query %d after lifting the delay and the timeout: %v", i, err)
		}
	}
	totals := eng.Totals()
	if totals.Deadline != 1 || totals.Errors != 0 || totals.OK != 3 {
		t.Errorf("totals: %d deadline, %d errors, %d ok; want 1, 0 and 3 (%+v)", totals.Deadline, totals.Errors, totals.OK, totals)
	}
}

// TestSocketTimeoutUnderContextDeadline cuts an RPC by a context
// deadline far below the connection's timeout against a server that
// never answers: the error must be context.DeadlineExceeded whichever
// of the socket's and the context's timers fires first.
func TestSocketTimeoutUnderContextDeadline(t *testing.T) {
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	addr := scriptedServer(t, func(conn net.Conn) {
		defer conn.Close()
		_ = readRequest(conn)
		<-hold
	})
	for i := range 20 {
		client, err := DialLCA(addr, 5*time.Second)
		if err != nil {
			t.Fatalf("DialLCA: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err = client.InSolution(ctx, 3)
		cancel()
		client.Close()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("attempt %d: InSolution error = %v, want context.DeadlineExceeded", i, err)
		}
	}
}
