package cluster

import (
	"context"
	"sync"
	"testing"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// benchRemote starts an instance server and dials it.
func benchRemote(b *testing.B, n, batch int) *RemoteAccess {
	b.Helper()
	gen, err := workload.Generate(workload.Spec{Name: "uniform", N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	remote, err := DialInstance(srv.Addr(), 0, batch)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { remote.Close() })
	return remote
}

func BenchmarkRemoteQueryItem(b *testing.B) {
	remote := benchRemote(b, 10_000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.QueryItem(context.Background(), i%10_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRemoteSampleBatched(b *testing.B) {
	remote := benchRemote(b, 10_000, 4096)
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := remote.Sample(context.Background(), src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRemoteSampleUnbatched(b *testing.B) {
	remote := benchRemote(b, 10_000, 1)
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := remote.Sample(context.Background(), src); err != nil {
			b.Fatal(err)
		}
	}
}

// deriveFixture is BenchmarkDeriveRemote's instance and its alias
// table, built once per test binary rather than once per b.N round.
var deriveFixture = sync.OnceValues(func() (*oracle.SliceOracle, error) {
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: 1_000_000, Seed: 1})
	if err != nil {
		return nil, err
	}
	return oracle.NewSliceOracle(gen.Float)
})

// BenchmarkDeriveRemote is the replica's half of a cold derivation:
// one engine query over core.LCAKP on engine.Wrap of a RemoteAccess,
// whose 17,666 draws come in six requests of exactly those draws from
// an in-process instance server over loopback (zipf, n = 1M, ε = 0.2).
// The instance server's work runs in the same process and is included.
func BenchmarkDeriveRemote(b *testing.B) {
	acc, err := deriveFixture()
	if err != nil {
		b.Fatal(err)
	}
	n := acc.N()
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	remote, err := DialInstance(srv.Addr(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { remote.Close() })
	lca, err := core.NewLCAKP(engine.Wrap(remote), core.Params{Epsilon: 0.2, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(lca)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Query(ctx, i%n); err != nil {
			b.Fatal(err)
		}
	}
}
