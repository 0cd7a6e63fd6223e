package repro

import (
	"math"
	"testing"

	"lcakp/internal/rng"
)

// benchSamples draws a deterministic sample set over the domain.
func benchSamples(n, size int) []int {
	src := rng.New(1)
	out := make([]int, n)
	for i := range out {
		out[i] = src.Intn(size)
	}
	return out
}

func BenchmarkECDFBuild(b *testing.B) {
	samples := benchSamples(50_000, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewECDF(samples, nil)
	}
}

func BenchmarkECDFQuery(b *testing.B) {
	e := NewECDF(benchSamples(50_000, 1<<12), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.FractionLE(i % (1 << 12))
	}
}

// BenchmarkDomainIndex indexes efficiencies drawn log-uniformly from
// the default domain at ε = 0.2: [ε²/8, 1e9], 12 bits.
func BenchmarkDomainIndex(b *testing.B) {
	d, err := NewDomain(0.2*0.2/8, 1e9, 12)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	effs := make([]float64, 4096)
	for k := range effs {
		effs[k] = math.Exp(src.Uniform(math.Log(d.min), math.Log(d.max)))
	}
	sum := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += d.Index(effs[i%len(effs)])
	}
	benchSink = sum
}

// benchSink keeps benchmark results live.
var benchSink int

func BenchmarkTrieQuantile(b *testing.B) {
	samples := benchSamples(20_000, 1<<12)
	est := Trie{Tau: 0.05}
	root := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Quantile(NewECDF(samples, nil), 1<<12, 0.7, root.DeriveIndex("s", i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaddedMedianQuantile(b *testing.B) {
	samples := benchSamples(20_000, 1<<12)
	est := PaddedMedian{Tau: 0.05}
	root := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Quantile(NewECDF(samples, nil), 1<<12, 0.7, root.DeriveIndex("s", i), root.DeriveIndex("f", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewDomain builds the default ε = 0.2 domain, its bucket
// table included: every LCA, and so every epoch seal, builds one.
func BenchmarkNewDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewDomain(0.2*0.2/8, 1e9, 12); err != nil {
			b.Fatal(err)
		}
	}
}
