package rng

import "testing"

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		_ = src.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		_ = src.Float64()
	}
}

func BenchmarkIntn(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		_ = src.Intn(1000)
	}
}

func BenchmarkDerive(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		_ = src.Derive("bench", "stream")
	}
}

func BenchmarkDeriveIndex(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		_ = src.DeriveIndex("bench", i)
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(100000, 1.1)
	src := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw(src)
	}
}

// BenchmarkIntnCoins draws one 256-pair alias chunk per op, the unit
// the alias sampler's frame asks for.
func BenchmarkIntnCoins(b *testing.B) {
	src := New(1)
	var cols [256]int
	var coins [256]uint64
	for i := 0; i < b.N; i++ {
		src.IntnCoins(1_000_000, cols[:], coins[:])
	}
}
